//! The NMTF multiplicative-update engine — paper Algorithm 2,
//! **sparse-first**.
//!
//! One engine drives RHCHME and the NMTF-based baselines; they differ only
//! in configuration, and [`crate::pipeline::Method::engine_config`] writes
//! each row's [`EngineConfig`]:
//!
//! | method  | graph regulariser            | `E_R` | row ℓ1 |
//! |---------|------------------------------|-------|--------|
//! | DRCC    | [`GraphRegularizer::Fixed`] (pNN, two types) | off | off |
//! | SRC     | [`GraphRegularizer::None`]   | off   | off    |
//! | SNMTF   | [`GraphRegularizer::Fixed`] (pNN) | off | off |
//! | RMC     | [`GraphRegularizer::Ensemble`] (6 pNN candidates) | off | off |
//! | RHCHME  | [`GraphRegularizer::Fixed`] (heterogeneous, Eq. 12) | on | on |
//!
//! The numerical guards are constants, not settings: the ridge
//! [`GRAM_RIDGE`] `= 1e-10` on every `GᵀG` inversion, the ζ `= 1e-8`
//! perturbation of Eq. 27's `D_ii` (Sec. III-D3) and the half-maximum
//! threshold that selects the exported `E_R` rows.
//!
//! # The sparse formulation
//!
//! The decomposition target `R` is a symmetric block matrix of
//! inter-type co-occurrences — inherently sparse (`z = nnz(R) ≪ n²`,
//! the quantity the paper's own complexity analysis in Sec. III-F is
//! written in). [`run_engine`] therefore takes `R` as a
//! [`mtrl_sparse::Csr`] (from [`MultiTypeData::assemble_r_csr`]) and
//! never forms an `n x n` dense matrix. Each product is formed once per
//! iteration and read by every step that needs it:
//!
//! * **`E_R` is implicit.** Eq. 27's row shrinkage is
//!   `(E_R)_i = f_i·q_i` with `f_i = 1/(1 + β/(2‖q_i‖ + ζ))` and
//!   `Q = R − G S Gᵀ`, so `(R − E_R)·G = D_{1−f}·R·G + D_f·G S GᵀG`
//!   for the `G` the next iteration starts from and the `S` of this
//!   one — a diagonal scaling of sparse `R`'s product plus a rank-`c`
//!   term. The residual step (steps 6–7) forms `V = G·(S·GᵀG)` for that
//!   `G` and `S`, and the next update's `m1 = (R − E_R)·G` is the
//!   entrywise `(1 − f_i)·(R·G)_ij + f_i·v_ij`; the engine keeps only
//!   `f` and `V` between the two.
//! * **`G S Gᵀ` is never materialised.** The Eq. 27 row residuals come
//!   from the trace identity
//!   `‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ`
//!   evaluated per row with `U = G·S`: the cross term is
//!   `(R·G)_i·u_i`, and the quadratic form `u_i·v_i` for an `E_R` fit
//!   (the `V` its next update reads) or `g_i·M·g_iᵀ` with
//!   `M = S GᵀG Sᵀ` on the row's own columns for the others.
//! * **The objective is trace-form.** `J₄`'s fit term is
//!   `Σ_i (1 − f_i)²‖q_i‖²` (equivalently
//!   `tr((R−E)ᵀ(R−E)) − 2·tr(Gᵀ(R−E)G Sᵀ) + tr(SᵀGᵀG S GᵀG)` — the
//!   identities `tr((R−E)ᵀGSGᵀ) = tr(Gᵀ(R−E)G Sᵀ)` and
//!   `‖GSGᵀ‖²_F = tr(SᵀGᵀG S GᵀG)` folded into the row residuals), and a
//!   fixed Laplacian's `tr(GᵀLG) = Σ_i g_i·((L⁺G)_i − (L⁻G)_i)` is read
//!   off `L±·G` of the updated `G`, formed once in steps 6–7 (each
//!   type's own block, packed) and handed to the next update, which
//!   multiplies by the same `L±` and `G`. RMC's combination changes at
//!   every resolve, so its update forms `L±·G` and its trace runs on
//!   the union pattern (see below). No `n x n` temporary
//!   survives anywhere in the loop.
//!
//! Per-iteration cost is `O(nnz·c + n·c²)` (was `O(n²·c)`) and resident
//! memory is `O(nnz + n·c)` (was three `n x n` buffers).
//!
//! # Kernel shape: the type-blocked layout
//!
//! `G` is block-diagonal (Sec. I-A): object type `k` owns rows
//! `data.spec().range(k)` and cluster columns
//! `data.cluster_spec().range(k)`, and its rows are zero elsewhere.
//! [`run_engine`] derives this layout once per fit and runs every
//! `n`-dimension product on each type's own columns, in `c_k` register
//! lanes instead of `c` (3 + 15 + 4 of 22 on the `ensemble_fit` member
//! shape, so 3,130 of `G`'s 9,460 entries):
//!
//! * `R·G` — block `(k, l)` of `R`, read in place, times `G`'s packed
//!   block `l` ([`CsrBlock::spmm_stacked`]) fills type `k`'s rows in type
//!   `l`'s columns, and the empty type-self blocks are never touched;
//! * `L±·G` — each Laplacian block (one per object type; any other
//!   layout is rejected) times its type's packed block, into a packed
//!   `n_k x c_k` block ([`Csr::spmm_into`]): own columns only, as the
//!   update and the trace read no others;
//! * `GᵀG`, `Gᵀ(R − E_R)G` — each cluster row sums over its own type's
//!   rows ([`matmul_tn_block`]);
//! * `U = G·S`, `V = G·(S·GᵀG)`, `A = (R − E_R)·G·Sᵀ`, `G·B±`, `M·g_i` —
//!   each over the type's rows, reading or writing its own columns
//!   ([`matmul_block`]);
//! * the update, the row ℓ1 normalisation, the residual's quadratic form
//!   without `E_R`, and `tr(GᵀLG)` — own columns only.
//!
//! The `n x c` operands live in buffers allocated once per call (per
//! fit for `G` and `R·G`, shared by a batch's fits for the work
//! buffers, RMC's `L±·G` too; `V` and a fixed Laplacian's `L±·G` per
//! fit); no `n x c` matrix is allocated per iteration (the work buffers
//! only change shape between fits), and the loop calls no full-width
//! kernel. Every stored entry
//! of `R·G`, `GᵀG`, `L±·G`, `U`, `V`, `A` and `G·B±` sums the same
//! nonzero terms in the same order as the full-width kernels do, so
//! each equals its full-width entry bit for bit. The terms dropped are
//! `±0`: a structural zero of `G` (or an empty block of `R` or `L`)
//! times a finite value, which leaves a `+0`-started sum unchanged. A
//! non-finite operand would turn a dropped `0·x` into NaN, so
//! [`run_engine`] rejects a non-finite `G0` or `R` and a `G0` with a
//! nonzero outside its type's columns, and returns
//! [`RhchmeError::Diverged`] as soon as `G` or `S` is non-finite. (A
//! product that overflows to `±∞` from finite operands is the one case
//! this does not cover.)
//!
//! # Lockstep batches
//!
//! An ensemble fits several members over the same `R`, and every one of
//! them multiplies `R` by its own `G` on every iteration.
//! [`run_engine_lockstep`] runs such fits together, one loop for all of
//! them: each fit's state (`G`, `R·G`, `GᵀG`, `S`, the `E_R` factors,
//! `V`, a fixed Laplacian's `L±·G` and RMC's weights) lives in its own
//! record with two half-steps around the `R·G` refresh — steps 3–5, then
//! steps 6–7. Between them, per column
//! type `l`, the live fits' packed `G_l` blocks sit side by side in one
//! zero-padded operand of whole 32-lane panels ([`LaneStack`]), and each
//! nonempty block of `R` multiplies them all at once, storing each fit's
//! lanes into its own `R·G` — so `R`'s stored entries are read once per
//! panel for every fit instead of once per fit. What does not depend on
//! the fit is prepared once per batch: which blocks of `R` are empty,
//! `R`'s row norms and finiteness scan, each distinct regulariser's
//! `L⁺/L⁻` split or RMC union pattern, and one set of work buffers.
//! Every entry sums the same terms in the same order as a fit run alone,
//! so each fit's outputs are bit-identical to its [`run_engine`] fit,
//! which is a batch of one.
//!
//! Each kernel keeps its output rows in fixed-size register
//! accumulators (up to 32 columns per pass), and the dense `matmul` /
//! `matmul_tn` panels run four output rows side by side. RMC's ensemble
//! regulariser runs on one union pattern fixed at fit start: each
//! iteration computes every `g_i · g_j` once, over the type's columns,
//! for the six candidate traces and the objective, and writes the
//! `β`-combination and its `±` split into fixed value arrays. The
//! original dense loop is kept verbatim as [`run_engine_dense_reference`]
//! for tests and benches; a cross-implementation proptest
//! (`tests/integration_engine.rs`) pins the two to the same objective
//! trace (1e-9 relative) and identical argmax labels across method
//! configurations and thread counts.
//!
//! Per iteration (Algorithm 2 steps 3–7):
//!
//! 1. `S = (GᵀG)⁻¹ Gᵀ (R − E_R) G (GᵀG)⁻¹` (Eq. 18), ridge-stabilised;
//! 2. multiplicative `G` update (Eq. 21) with positive/negative part
//!    splits of `L`, `A = (R − E_R) G Sᵀ` and `B = Sᵀ GᵀG S`, on each
//!    type's own block;
//! 3. row-ℓ1 normalisation of `G` (Eq. 22) when enabled;
//! 4. `E_R` update (Eq. 27) as the shrinkage factors `f` above;
//! 5. objective `J₄` (Eq. 15) evaluation and convergence check.
//!
//! The final `E_R` is reported two ways: `error_row_norms` (every row's
//! `‖(E_R)_i‖`, the corruption indicator) and `error_rows` — a
//! [`mtrl_sparse::RowSparse`] materialising only the *shrunk-active*
//! rows (norm ≥ `ERROR_EXPORT_REL` = ½ of the largest),
//! matching the ℓ2,1 model: most rows shrink to near-zero, corrupted
//! samples stay large.
//!
//! # Observability (stable metric-name contract)
//!
//! With `MTRL_OBS=1` (see `mtrl-obs`), every [`run_engine`] and
//! [`run_engine_lockstep`] call reports into the global registry. The names below are a **stable contract** —
//! exporters, dashboards, and the CI manifest rely on them:
//!
//! * span `engine.fit` — wall time of the whole call (nested under any
//!   caller spans, e.g. `rhchme.fit/engine.fit`); a lockstep batch is
//!   one call, so one span covers all its fits;
//! * span aggregates `engine.fit.spmm`, `engine.fit.lowrank`,
//!   `engine.fit.update`, `engine.fit.residual` — cumulative per-phase
//!   kernel time across the iteration loop (`count` = iterations), one
//!   record per fit: `spmm` is the fit's share of the stacked `R·G`
//!   refresh (packing included; the refresh time split evenly over the
//!   live fits) and its `GᵀG`; `lowrank` the regulariser resolve, the
//!   entrywise `(R − E_R)·G` from `R·G` and `V`, `Gᵀ(R − E_R)G` and the
//!   Eq. 18 `S` solve; `update` the own-block `A` and `G·B±` products,
//!   `L±·G` where the update forms it (the first iteration and RMC), the
//!   Eq. 21 multiplicative `G` update and the row normalisation;
//!   `residual` `U = G·S`, `V` (`E_R` fits) or the own-column `M·g_i`,
//!   the trace-identity `‖q_i‖` / `E_R` update, a fixed Laplacian's
//!   `L±·G` with the trace read off it (RMC's union-pattern trace) and
//!   the objective;
//! * counters `engine.fits` (fits, one per batch member) and
//!   `engine.iterations` (total iterations across fits);
//! * a `FitTelemetry` record per fit (label `engine.fit`) with the problem shape
//!   (`n`, `c`, `nnz`), convergence outcome, the four phase totals, and
//!   a per-iteration trace of `objective`, `rel_change`, and
//!   `er_active_rows` (rows clearing the
//!   `ERROR_EXPORT_REL` threshold — Fig. 3's
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
use mtrl_linalg::block::BlockSpec;
use mtrl_linalg::norms::row_l2_norms;
use mtrl_linalg::ops::{g_s_gt, gram, matmul, matmul_block, matmul_tn, matmul_tn_block};
use mtrl_linalg::simplex::project_simplex;
use mtrl_linalg::solve::ridge_inverse;
use mtrl_linalg::vecops;
use mtrl_linalg::{Mat, Precision, EPS};
use mtrl_obs::{FitTelemetry, IterTelemetry};
use mtrl_sparse::{Csr, CsrBlock, LaneStack, RowSparse, SparseBlockDiag};
use std::ops::Range;
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

    /// Whether the clock runs (observability is on).
    fn enabled(&self) -> bool {
        self.lap_start.is_some()
    }

    /// Charge the time since the last mark/lap to `phase`.
    fn lap(&mut self, phase: usize) {
        self.lap_with(phase, 0);
    }

    /// [`Self::lap`], plus `extra_ns` measured elsewhere (a fit's share
    /// of a step run for the whole batch).
    fn lap_with(&mut self, phase: usize, extra_ns: u64) {
        if let Some(start) = self.lap_start {
            let now = Instant::now();
            let lap = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(0) + extra_ns;
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

/// Ridge added to `GᵀG` before every inversion (empty-cluster
/// protection): the engine's Eq. 18 `S` solve and the consensus
/// ensemble's closed-form `S`.
pub const GRAM_RIDGE: f64 = 1e-10;

/// The ζ perturbation regularising `D_ii` when `‖q_i‖ = 0`
/// (Sec. III-D3).
const ZETA: f64 = 1e-8;

/// Activity threshold for materialising final `E_R` rows into
/// [`EngineResult::error_rows`], relative to the largest row norm: rows
/// with `‖(E_R)_i‖ ≥ ERROR_EXPORT_REL · max_j ‖(E_R)_j‖` are stored.
/// Keeps the export at `O(active · n)` — under the ℓ2,1 model only
/// outlier (corrupted) rows clear half the maximum.
const ERROR_EXPORT_REL: f64 = 0.5;

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
    /// Operand precision; [`Precision`] has the one value `F64`, which
    /// every kernel of the loop runs in.
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
    /// half the maximum), stored row-sparsely; an all-zero `n x n` when
    /// `E_R` is disabled.
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

/// A graph regulariser's fit-independent part, prepared once per
/// distinct regulariser of a [`run_engine_lockstep`] batch: a fixed
/// Laplacian's `L⁺/L⁻` split, or RMC's union pattern.
enum PreparedReg<'a> {
    None,
    /// A fixed Laplacian's part split (the Laplacian itself stays
    /// with the caller's [`GraphRegularizer`]; a fit never deep-copies
    /// its `O(p·n)` triplets).
    Fixed {
        lp: SparseBlockDiag,
        lm: SparseBlockDiag,
    },
    /// RMC's candidates and their union pattern (see [`UnionEnsemble`]).
    Ensemble {
        candidates: &'a [SparseBlockDiag],
        mu: f64,
        pattern: Vec<UnionBlock>,
    },
}

impl<'a> PreparedReg<'a> {
    fn new(reg: &'a GraphRegularizer) -> Self {
        match reg {
            GraphRegularizer::None => PreparedReg::None,
            GraphRegularizer::Fixed(l) => {
                let (lp, lm) = l.split_parts();
                PreparedReg::Fixed { lp, lm }
            }
            GraphRegularizer::Ensemble { candidates, mu } => PreparedReg::Ensemble {
                candidates,
                mu: *mu,
                pattern: union_pattern(candidates),
            },
        }
    }
}

/// One fit's per-iteration regulariser state, shared by both engine
/// paths; it borrows the fit-independent part from a [`PreparedReg`].
enum RegState<'p> {
    None,
    Fixed {
        lp: &'p SparseBlockDiag,
        lm: &'p SparseBlockDiag,
    },
    /// RMC's candidate ensemble, re-weighted every iteration on one
    /// union pattern (see [`UnionEnsemble`]).
    Ensemble(Box<UnionEnsemble<'p>>),
}

impl<'p> RegState<'p> {
    fn new(prepared: &'p PreparedReg<'_>, clusters: &BlockSpec) -> Self {
        match prepared {
            PreparedReg::None => RegState::None,
            PreparedReg::Fixed { lp, lm } => RegState::Fixed { lp, lm },
            PreparedReg::Ensemble {
                candidates,
                mu,
                pattern,
            } => RegState::Ensemble(Box::new(UnionEnsemble::new(
                candidates, *mu, pattern, clusters,
            ))),
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

    /// The `(L⁺, L⁻)` this iteration's update multiplies `G` by, `None`
    /// without a regulariser.
    fn parts(&self) -> Option<(&SparseBlockDiag, &SparseBlockDiag)> {
        match self {
            RegState::None => None,
            RegState::Fixed { lp, lm, .. } => Some((lp, lm)),
            RegState::Ensemble(ens) => Some((&ens.parts.0, &ens.parts.1)),
        }
    }

    /// `(L⁺·G, L⁻·G)` in full width for the dense reference's
    /// multiplicative update, `None` without a regulariser.
    fn part_products(&self, g: &Mat) -> Result<Option<(Mat, Mat)>> {
        let Some((lp, lm)) = self.parts() else {
            return Ok(None);
        };
        Ok(Some((lp.mul_dense(g)?, lm.mul_dense(g)?)))
    }

    /// The regulariser trace `tr(GᵀLG)` of the objective (0 without a
    /// regulariser); a fixed Laplacian's from its full-width part
    /// products ([`parts_trace`]).
    fn trace(&mut self, g: &Mat) -> Result<f64> {
        Ok(match self {
            RegState::None => 0.0,
            RegState::Fixed { .. } => {
                let (lpg, lmg) = self.part_products(g)?.expect("a fixed Laplacian");
                parts_trace([(g, &lpg, &lmg)])
            }
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
/// `L⁺`/`L⁻` split are written into fixed value arrays: the split's two
/// block matrices are built once per fit on the pos/neg patterns, and
/// each resolve overwrites their values in place.
///
/// The pattern ([`union_pattern`]) does not depend on the fit, so the
/// fits of a batch share it; each fit keeps its own products, weights
/// and combination.
///
/// Every value equals what merging the candidates one by one
/// (`L̂₀·β₀ + L̂₁·β₁ + …`, dropping entries that come out zero) and
/// splitting the result produces, summed in the same order; an entry
/// that merge would drop holds a zero here instead, which adds nothing
/// to any product with the finite `G` the engine iterates on.
struct UnionEnsemble<'p> {
    candidates: usize,
    mu: f64,
    blocks: &'p [UnionBlock],
    /// Per block, its type's cluster columns of `G`.
    cols: Vec<Range<usize>>,
    /// Per block, `g_i · g_j` on the union pattern.
    dots: Vec<Vec<f64>>,
    /// Whether `dots` belong to the `G` the next [`Self::resolve`] sees.
    dots_fresh: bool,
    /// Per block, the combination's values on the union pattern.
    comb: Vec<Vec<f64>>,
    /// Whether a zero in `comb` is a stored entry (one candidate, which
    /// is scaled, never merged) rather than a dropped one.
    keep_zeros: bool,
    /// This iteration's `(L⁺, L⁻)` on the fixed pos/neg patterns (zero
    /// before the first resolve).
    parts: (SparseBlockDiag, SparseBlockDiag),
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

    /// The `n x n` CSR of the pattern, every value zero.
    fn zeros(&self) -> Csr {
        let n = self.indptr.len() - 1;
        let values = vec![0.0; self.slots.len()];
        Csr::from_raw_parts(n, n, self.indptr.clone(), self.indices.clone(), values)
    }

    /// Write `value(slot)` at each entry of `values`, the pattern's
    /// stored values.
    fn fill(&self, values: &mut [f64], value: impl Fn(usize) -> f64) {
        for (v, &slot) in values.iter_mut().zip(&self.slots) {
            *v = value(slot);
        }
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

/// The union pattern of each diagonal block of the candidates.
fn union_pattern(candidates: &[SparseBlockDiag]) -> Vec<UnionBlock> {
    let spec = candidates[0].spec();
    (0..candidates[0].num_blocks())
        .map(|k| {
            let members: Vec<&Csr> = candidates.iter().map(|c| c.block(k)).collect();
            UnionBlock::new(&members, spec.offset(k))
        })
        .collect()
}

impl<'p> UnionEnsemble<'p> {
    fn new(
        candidates: &[SparseBlockDiag],
        mu: f64,
        blocks: &'p [UnionBlock],
        clusters: &BlockSpec,
    ) -> Self {
        let part_zeros = |part: fn(&UnionBlock) -> &SlotPattern| {
            SparseBlockDiag::new(blocks.iter().map(|b| part(b).zeros()).collect())
                .expect("square blocks")
        };
        UnionEnsemble {
            candidates: candidates.len(),
            mu,
            cols: (0..blocks.len()).map(|k| clusters.range(k)).collect(),
            dots: blocks.iter().map(|b| vec![0.0; b.indices.len()]).collect(),
            comb: blocks.iter().map(|b| vec![0.0; b.indices.len()]).collect(),
            blocks,
            dots_fresh: false,
            keep_zeros: false,
            parts: (part_zeros(|b| &b.pos), part_zeros(|b| &b.neg)),
        }
    }

    /// Fill `dots` with `g_i · g_j` on the union pattern of every block.
    fn refresh_dots(&mut self, g: &Mat) {
        for ((block, cols), dots) in self.blocks.iter().zip(&self.cols).zip(&mut self.dots) {
            pattern_dots(g, block, cols.clone(), dots);
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
        let traces: Vec<f64> = (0..self.candidates)
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
        self.keep_zeros = self.candidates == 1 && beta[0] != 0.0;
        let (lp, lm) = &mut self.parts;
        for (k, (block, comb)) in self.blocks.iter().zip(&self.comb).enumerate() {
            let pos = |slot: usize| if comb[slot] > 0.0 { comb[slot] } else { 0.0 };
            let neg = |slot: usize| if comb[slot] < 0.0 { -comb[slot] } else { 0.0 };
            block.pos.fill(lp.block_values_mut(k), pos);
            block.neg.fill(lm.block_values_mut(k), neg);
        }
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

/// `dots[e] = g_i · g_j` for every entry `(i, j)` of one block's union
/// pattern, over the block's type's cluster columns `cols` — the
/// products of [`Csr::quad_form_at`] on the rows of a finite,
/// type-blocked `G`. The terms outside those columns are `±0` there, and
/// dropping them can change a dot product only in the sign of a zero
/// result, which no `acc += v · dot` can see (see there).
fn pattern_dots(g: &Mat, block: &UnionBlock, cols: Range<usize>, dots: &mut [f64]) {
    let row = |j: usize| &g.row(block.offset + j)[cols.clone()];
    for (i, w) in block.indptr.windows(2).enumerate() {
        let gi = row(i);
        let out = &mut dots[w[0]..w[1]];
        let idx = &block.indices[w[0]..w[1]];
        let mut quads = out.chunks_exact_mut(4);
        let mut js = idx.chunks_exact(4);
        for (o, j) in (&mut quads).zip(&mut js) {
            o.copy_from_slice(&vecops::dots(
                gi,
                [row(j[0]), row(j[1]), row(j[2]), row(j[3])],
            ));
        }
        for (o, &j) in quads.into_remainder().iter_mut().zip(js.remainder()) {
            *o = vecops::dots(gi, [row(j)])[0];
        }
    }
}

/// The multiplicative `G` update of Eq. 21 on the block
/// `G[rows, cols]`, shared by both paths: each entry scales by
/// `sqrt(num/den)`; structural zeros stay zero. The typed path updates
/// each type's own block; the dense reference, the whole matrix.
/// `l_g` holds `(L⁺·G, L⁻·G)` on the block alone: entry `(i, j)` of the
/// block is their entry `(i − rows.start, j − cols.start)`.
/// Returns whether every updated entry is finite.
#[allow(clippy::too_many_arguments)]
fn multiplicative_update(
    g: &mut Mat,
    a: &Mat,
    gb_pos: &Mat,
    gb_neg: &Mat,
    l_g: Option<(&Mat, &Mat)>,
    lambda: f64,
    rows: Range<usize>,
    cols: Range<usize>,
) -> bool {
    let mut finite = true;
    let (i0, j0) = (rows.start, cols.start);
    for i in rows {
        let a_row = a.row(i);
        let gbp = gb_pos.row(i);
        let gbn = gb_neg.row(i);
        let lpg = l_g.map(|(lp, _)| lp.row(i - i0));
        let lmg = l_g.map(|(_, lm)| lm.row(i - i0));
        let grow = g.row_mut(i);
        for j in cols.clone() {
            let gv = grow[j];
            if gv == 0.0 {
                continue; // structural zero (block layout) stays zero
            }
            let a_pos = a_row[j].max(0.0);
            let a_neg = (-a_row[j]).max(0.0);
            let (l_num, l_den) = match (lmg, lpg) {
                (Some(lm), Some(lp)) => (lambda * lm[j - j0], lambda * lp[j - j0]),
                _ => (0.0, 0.0),
            };
            let num = l_num + a_pos + gbn[j];
            let den = l_den + a_neg + gbp[j];
            grow[j] = gv * ((num + EPS) / (den + EPS)).sqrt();
            finite &= grow[j].is_finite();
        }
    }
    finite
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
///   [`crate::kmeans::labels_to_membership`]), block-structured: each
///   row nonzero only in its type's cluster columns.
///
/// Per iteration `O(nnz·c + n·c²)` work, `O(nnz + n·c)` memory; see the
/// module docs for the implicit `E_R` / trace-identity formulation and
/// the type-blocked kernels. This is [`run_engine_lockstep`] on a batch
/// of one fit. The SpMMs run on the [`mtrl_linalg::par`] pool above
/// their work threshold, the other kernels serially; results are
/// bit-identical for every thread count.
///
/// # Errors
/// * [`RhchmeError::InvalidData`] / [`RhchmeError::InvalidConfig`] on
///   shape or parameter violations, a `G0` entry that is non-finite or
///   nonzero outside its type's cluster columns, a non-finite `R`
///   value, or a Laplacian whose blocks are not the object types;
/// * [`RhchmeError::Diverged`] if an iterate (`G` or `S`) becomes
///   non-finite.
pub fn run_engine(
    r: &Csr,
    data: &MultiTypeData,
    reg: &GraphRegularizer,
    g0: Mat,
    cfg: &EngineConfig,
) -> Result<EngineResult> {
    let fit = LockstepFit {
        data,
        reg,
        g0,
        cfg: cfg.clone(),
    };
    let mut out = run_engine_lockstep(r, vec![fit])?;
    Ok(out.pop().expect("one fit, one result"))
}

/// One fit of a [`run_engine_lockstep`] batch: what [`run_engine`]
/// takes besides `R`.
pub struct LockstepFit<'a> {
    /// Block layouts of this fit (the batch shares the object layout;
    /// the cluster layout may differ per fit).
    pub data: &'a MultiTypeData,
    /// Graph regulariser; fits that pass the same one (by address)
    /// share its prepared part.
    pub reg: &'a GraphRegularizer,
    /// Initial membership.
    pub g0: Mat,
    /// Engine configuration.
    pub cfg: EngineConfig,
}

/// Run several engine fits over one `R` in lockstep, so that each
/// iteration reads `R`'s stored entries once for all of them.
///
/// Every fit is exactly the [`run_engine`] fit of its inputs, bit for
/// bit: each iteration runs steps 3–5 for every live fit, refreshes
/// every live fit's `R·G` in one stacked product
/// ([`CsrBlock::spmm_stacked`]: per block `R_kl`, the fits' packed `G_l`
/// side by side), then runs steps 6–7 for each. A fit leaves the batch
/// when it converges or reaches its iteration budget. The fits share
/// what does not depend on them: `R`'s type blocks, row norms and
/// finiteness scan, each distinct regulariser's prepared part, and one
/// set of work buffers; only `G`, `R·G`, `GᵀG`, `S`, the `E_R` factors
/// and `V`, a fixed Laplacian's packed `L±·G` and RMC's weights are kept
/// per fit.
///
/// Results come back in input order.
///
/// # Errors
/// The error [`run_engine`] returns for the lowest-indexed fit that
/// fails — what running the fits one after another would return — and
/// [`RhchmeError::InvalidData`] for a fit whose object layout differs
/// from the first fit's. Once a fit fails, the fits after it stop.
pub fn run_engine_lockstep(r: &Csr, fits: Vec<LockstepFit<'_>>) -> Result<Vec<EngineResult>> {
    // A fit that fails validation ends the batch there, as it would end
    // a sequential run before the fits after it start.
    let mut failure: Option<(usize, RhchmeError)> = None;
    let mut r_finite = None;
    let mut valid = Vec::with_capacity(fits.len());
    for (index, fit) in fits.into_iter().enumerate() {
        let types = valid.first().map(|f: &LockstepFit<'_>| f.data.spec());
        if let Err(e) = validate_fit(r, &fit, types, &mut r_finite) {
            failure = Some((index, e));
            break;
        }
        valid.push(fit);
    }
    if valid.is_empty() {
        return failure.map_or(Ok(Vec::new()), |(_, e)| Err(e));
    }

    // Observability (reads-only; skipped entirely when MTRL_OBS is off —
    // the fit itself is byte-identical either way).
    let obs = mtrl_obs::enabled();
    let _fit_span = mtrl_obs::span!("engine.fit");

    let problem = Problem::new(r, valid[0].data.spec());
    let mut regs: Vec<&GraphRegularizer> = Vec::new();
    for fit in &valid {
        if !regs.iter().any(|&reg| std::ptr::eq(reg, fit.reg)) {
            regs.push(fit.reg);
        }
    }
    let prepared: Vec<PreparedReg<'_>> = regs.iter().map(|reg| PreparedReg::new(reg)).collect();
    let mut scratch = Scratch::default();
    let mut live: Vec<Fit<'_>> = valid
        .into_iter()
        .enumerate()
        .map(|(index, spec)| {
            let at = regs.iter().position(|&reg| std::ptr::eq(reg, spec.reg));
            Fit::new(index, spec, &prepared[at.expect("prepared")], obs)
        })
        .collect();
    let mut stacks: Vec<LaneStack> = Vec::new();
    problem.refresh(&mut live, &mut stacks);
    let mut finished: Vec<Fit<'_>> = Vec::new();
    let mut t = 0;
    loop {
        let (done, running): (Vec<_>, Vec<_>) = live.into_iter().partition(Fit::done);
        finished.extend(done);
        live = running;
        if live.is_empty() {
            break;
        }
        // ---- Steps 3-5 -----------------------------------------------
        let mut failed = Vec::new();
        for fit in &mut live {
            if let Err(e) = fit.update(t, scratch.fit(fit.data)) {
                failed.push((fit.index, e));
            }
        }
        drop_failed(&mut live, &mut failure, failed);
        if live.is_empty() {
            break;
        }

        // ---- R·G for every live fit's updated G ----------------------
        let start = obs.then(Instant::now);
        problem.refresh(&mut live, &mut stacks);
        let share = start.map_or(0, |s| {
            let ns = u64::try_from(s.elapsed().as_nanos()).unwrap_or(0);
            ns / live.len() as u64
        });

        // ---- Steps 6-7 -----------------------------------------------
        let mut failed = Vec::new();
        for fit in &mut live {
            if let Err(e) = fit.residual(t, &problem, scratch.fit(fit.data), share) {
                failed.push((fit.index, e));
            }
        }
        drop_failed(&mut live, &mut failure, failed);
        t += 1;
    }

    finished.sort_by_key(|f| f.index);
    let cutoff = failure.as_ref().map_or(usize::MAX, |(index, _)| *index);
    let results = finished
        .into_iter()
        .filter(|f| f.index < cutoff)
        .map(|f| f.finish(&problem))
        .collect::<Result<Vec<_>>>()?;
    match failure {
        Some((_, e)) => Err(e),
        None => Ok(results),
    }
}

/// Record the failures of one half-step (the lowest index wins) and stop
/// every fit from the failing one on.
fn drop_failed(
    live: &mut Vec<Fit<'_>>,
    failure: &mut Option<(usize, RhchmeError)>,
    failed: Vec<(usize, RhchmeError)>,
) {
    for (index, e) in failed {
        if failure.as_ref().is_none_or(|(at, _)| index < *at) {
            *failure = Some((index, e));
        }
    }
    if let Some((at, _)) = failure {
        let at = *at;
        live.retain(|f| f.index < at);
    }
}

/// [`run_engine`]'s checks of one fit, in its order: `R`'s shape, the
/// configuration, `G0`, the Laplacians' layout, `R`'s values (scanned
/// once per batch, into `r_finite`).
fn validate_fit(
    r: &Csr,
    fit: &LockstepFit<'_>,
    types: Option<&BlockSpec>,
    r_finite: &mut Option<bool>,
) -> Result<()> {
    let data = fit.data;
    let n = data.total_objects();
    let c = data.total_clusters();
    if r.shape() != (n, n) {
        return Err(RhchmeError::InvalidData(format!(
            "R is {:?}, expected ({n}, {n})",
            r.shape()
        )));
    }
    if types.is_some_and(|t| t != data.spec()) {
        return Err(RhchmeError::InvalidData(
            "the fits of one lockstep batch must share the object layout".into(),
        ));
    }
    validate_common(n, c, &fit.g0, fit.reg, &fit.cfg)?;
    // The type layout of Sec. I-A: type k owns rows `types.range(k)` and
    // cluster columns `clusters.range(k)`.
    validate_typed_membership(&fit.g0, &type_blocks(data))?;
    let types = data.spec();
    let laplacians: &[SparseBlockDiag] = match fit.reg {
        GraphRegularizer::None => &[],
        GraphRegularizer::Fixed(l) => std::slice::from_ref(l),
        GraphRegularizer::Ensemble { candidates, .. } => candidates,
    };
    if laplacians.iter().any(|l| l.spec() != types) {
        return Err(RhchmeError::InvalidData(format!(
            "Laplacian blocks {:?} are not the object types {:?}",
            laplacians[0].spec().sizes(),
            types.sizes()
        )));
    }
    let scan = || (0..r.rows()).all(|i| r.row(i).1.iter().all(|v| v.is_finite()));
    if !*r_finite.get_or_insert_with(scan) {
        return Err(RhchmeError::InvalidData("R has a non-finite value".into()));
    }
    Ok(())
}

/// Each object type's rows and cluster columns.
fn type_blocks(data: &MultiTypeData) -> Vec<(Range<usize>, Range<usize>)> {
    let (types, clusters) = (data.spec(), data.cluster_spec());
    (0..types.num_blocks())
        .map(|k| (types.range(k), clusters.range(k)))
        .collect()
}

/// What every fit of a batch shares about `R`.
struct Problem<'a> {
    r: &'a Csr,
    types: &'a BlockSpec,
    /// The nonempty type blocks `R_kl` of `R`, read in place, each with
    /// its column type `l`: block `(k, l)` of `R·G` is `R_kl` times `G`'s
    /// packed block `l`, in type `k`'s rows and type `l`'s cluster
    /// columns. Empty blocks (`R` has no type-self blocks) are never
    /// written, so their entries of `R·G` stay `+0`.
    blocks: Vec<(usize, CsrBlock<'a>)>,
    /// `‖r_i‖²` of every row, for the residual trace identity.
    r_row_sq: Vec<f64>,
}

impl<'a> Problem<'a> {
    fn new(r: &'a Csr, types: &'a BlockSpec) -> Self {
        let num_types = types.num_blocks();
        let blocks = (0..num_types)
            .flat_map(|k| (0..num_types).map(move |l| (k, l)))
            .map(|(k, l)| (l, r.block(types.range(k), types.range(l))))
            .filter(|(_, block)| block.nnz() > 0)
            .collect();
        Problem {
            r,
            types,
            blocks,
            r_row_sq: (0..r.rows())
                .map(|i| r.row(i).1.iter().map(|v| v * v).sum())
                .collect(),
        }
    }

    /// `R·G` of every fit in `fits`, for its current `G`: per column
    /// type `l`, the fits' packed `G_l` blocks are stacked side by side
    /// (`stacks[l]`, laid out again only when the fits' widths change),
    /// and each nonempty `R_kl`, read in place, multiplies them all in one
    /// [`CsrBlock::spmm_stacked`], storing each fit's lanes into its own
    /// `R·G`. Every entry equals the one-fit product
    /// ([`typed_spmm`]) bit for bit.
    fn refresh(&self, fits: &mut [Fit<'_>], stacks: &mut Vec<LaneStack>) {
        let num_types = self.types.num_blocks();
        stacks.resize_with(num_types, || LaneStack::new(0, &[]));
        for (l, stack) in stacks.iter_mut().enumerate() {
            let widths: Vec<usize> = fits.iter().map(|f| f.blocks[l].1.len()).collect();
            if stack.widths() != widths {
                *stack = LaneStack::new(self.types.size(l), &widths);
            }
            for (k, fit) in fits.iter().enumerate() {
                let (rows, cols) = fit.blocks[l].clone();
                stack.set(k, &fit.g, rows, cols);
            }
        }
        for &(l, ref r_kl) in &self.blocks {
            let mut outs: Vec<(&mut Mat, usize)> = fits
                .iter_mut()
                .map(|f| {
                    let col0 = f.blocks[l].1.start;
                    (&mut f.rg, col0)
                })
                .collect();
            r_kl.spmm_stacked(&stacks[l], &mut outs);
        }
    }
}

/// The loop's `n x c` work buffers, one set for every fit of a batch,
/// re-shaped to each fit's cluster layout in turn ([`Mat::reshape`]).
/// Every half-step writes each entry it reads before reading it, so
/// what one fit leaves in them never reaches another.
///   `g_blocks` — each type's own block of `G`, packed (`n_k x c_k`),
///            the right operand of `L±·G`;
///   `m1`   — `(R − E_R)·G` (`E_R` fits after the first iteration);
///   `prod`, `gb_pos`, `gb_neg` — the update's `A = m1·Sᵀ` and `G·B±`,
///            then the residual's `U = G·S` and `G·Mᵀ` (fits without
///            `E_R`) in `prod` and `gb_pos`;
///   `gtm`  — `Gᵀ(R − E_R)G`;
///   `lg`   — `L±·G` where an update forms it (RMC, a first iteration).
#[derive(Default)]
struct Scratch {
    g_blocks: Vec<Mat>,
    m1: Mat,
    prod: Mat,
    gb_pos: Mat,
    gb_neg: Mat,
    gtm: Mat,
    lg: (Vec<Mat>, Vec<Mat>),
}

impl Scratch {
    /// Shape the buffers for `data`'s layout.
    fn fit(&mut self, data: &MultiTypeData) -> &mut Self {
        let (n, c) = (data.total_objects(), data.total_clusters());
        let sizes = data.sizes().iter().zip(data.cluster_counts());
        self.g_blocks.resize_with(data.num_types(), Mat::default);
        for (block, (&nk, &ck)) in self.g_blocks.iter_mut().zip(sizes) {
            block.reshape(nk, ck);
        }
        for m in [
            &mut self.m1,
            &mut self.prod,
            &mut self.gb_pos,
            &mut self.gb_neg,
        ] {
            m.reshape(n, c);
        }
        self.gtm.reshape(c, c);
        self
    }
}

/// One fit's state across the two half-steps of an iteration.
struct Fit<'p> {
    index: usize,
    data: &'p MultiTypeData,
    cfg: EngineConfig,
    reg: RegState<'p>,
    /// Each type's rows and cluster columns.
    blocks: Vec<(Range<usize>, Range<usize>)>,
    g: Mat,
    s: Mat,
    /// `R·G` for the current `G`, refreshed after every update and
    /// shared by the residual of iteration `t` and step 3 of `t + 1`.
    rg: Mat,
    /// `GᵀG` for the current `G`: block-diagonal, refreshed with `R·G`.
    gram: Mat,
    /// Implicit `E_R`: shrinkage factors `f` and
    /// `V = G·(S·GᵀG)` of the current `G` and the last `S`, so that
    /// `(R − E_R)·G = D_{1−f}·R·G + D_f·V` (`V` stays empty without
    /// `E_R`).
    f_er: Vec<f64>,
    one_minus_f: Vec<f64>,
    v: Mat,
    /// A fixed Laplacian's `(L⁺·G, L⁻·G)` on each type's own block
    /// (`n_k x c_k`) from the residual step, which the next update reads
    /// when `lg_fresh` (an ensemble's resolve changes the parts, so RMC
    /// forms its own in [`Scratch::lg`] and leaves this empty).
    lg: (Vec<Mat>, Vec<Mat>),
    lg_fresh: bool,
    error_row_norms: Vec<f64>,
    final_q_norms: Vec<f64>,
    ensemble_weights: Option<Vec<f64>>,
    objective_trace: Vec<f64>,
    label_trace: Vec<Vec<usize>>,
    prev_obj: f64,
    converged: bool,
    iterations: usize,
    clock: PhaseClock,
    iter_telemetry: Vec<IterTelemetry>,
}

impl<'p> Fit<'p> {
    fn new(index: usize, spec: LockstepFit<'p>, prepared: &'p PreparedReg<'_>, obs: bool) -> Self {
        let LockstepFit { data, g0, cfg, .. } = spec;
        let (n, c) = (data.total_objects(), data.total_clusters());
        let blocks = type_blocks(data);
        let mut gram = Mat::zeros(c, c);
        typed_gram(&g0, &blocks, &mut gram);
        Fit {
            index,
            data,
            reg: RegState::new(prepared, data.cluster_spec()),
            lg: Default::default(),
            lg_fresh: false,
            g: g0,
            s: Mat::zeros(c, c),
            rg: Mat::zeros(n, c),
            gram,
            f_er: vec![0.0; n],
            one_minus_f: vec![1.0; n],
            v: Mat::default(),
            blocks,
            error_row_norms: Vec::new(),
            final_q_norms: Vec::new(),
            ensemble_weights: None,
            objective_trace: Vec::with_capacity(cfg.max_iter),
            label_trace: Vec::new(),
            prev_obj: f64::INFINITY,
            converged: false,
            iterations: 0,
            clock: PhaseClock::new(obs),
            iter_telemetry: Vec::new(),
            cfg,
        }
    }

    /// Steps 3–5 of iteration `t`: the regulariser, `S`, the
    /// multiplicative `G` update and the row normalisation. Reads `R·G`,
    /// `GᵀG` and `V` of the current `G`, and its `L±·G` when the last
    /// residual step formed them.
    fn update(&mut self, t: usize, scratch: &mut Scratch) -> Result<()> {
        self.iterations = t + 1;
        self.clock.mark();
        let c = self.data.total_clusters();
        let Scratch {
            g_blocks,
            m1: m1_buf,
            prod,
            gb_pos,
            gb_neg,
            gtm,
            lg,
        } = scratch;

        // ---- Regulariser for this iteration -------------------------
        self.reg.resolve(&self.g, &mut self.ensemble_weights);

        // ---- Step 3: S update (Eq. 18) ------------------------------
        // m1 = (R − E_R)·G = D_{1−f}·(R·G) + D_f·V, entry by entry, with
        // V = G·(S·GᵀG) formed by the last residual step; before the
        // first shrinkage E_R = 0 and m1 is R·G itself.
        let m1: &Mat = if self.cfg.use_error_matrix && t > 0 {
            let rows = m1_buf
                .as_mut_slice()
                .chunks_exact_mut(c)
                .zip(self.rg.as_slice().chunks_exact(c))
                .zip(self.v.as_slice().chunks_exact(c));
            let factors = self.one_minus_f.iter().zip(&self.f_er);
            for (((m, rg), v), (&keep, &f)) in rows.zip(factors) {
                for ((m, &rg), &v) in m.iter_mut().zip(rg).zip(v) {
                    *m = keep * rg + f * v;
                }
            }
            &*m1_buf
        } else {
            &self.rg
        };
        // Gᵀ(R − E_R)G, c x c: cluster row a sums over its type's rows.
        for (rows, cols) in &self.blocks {
            matmul_tn_block(&self.g, m1, rows.clone(), cols.clone(), 0..c, gtm);
        }
        let ginv = ridge_inverse(&self.gram, GRAM_RIDGE)?;
        self.s = matmul(&matmul(&ginv, gtm)?, &ginv)?;
        if self.s.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }
        let st = self.s.transpose();
        self.clock.lap(PHASE_LOWRANK);

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        // Every operand of the update on the own blocks:
        // A = m1·Sᵀ = (R − E_R)·G·Sᵀ, G·B± with B = Sᵀ GᵀG S, and L±·G.
        let b = matmul_tn(&self.s, &matmul(&self.gram, &self.s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        for (rows, cols) in &self.blocks {
            matmul_block(m1, &st, rows.clone(), 0..c, cols.clone(), prod);
            matmul_block(
                &self.g,
                &b_pos,
                rows.clone(),
                cols.clone(),
                cols.clone(),
                gb_pos,
            );
            matmul_block(
                &self.g,
                &b_neg,
                rows.clone(),
                cols.clone(),
                cols.clone(),
                gb_neg,
            );
        }
        // L±·G: a fixed Laplacian's from the last residual step, which
        // read the trace off them; formed here, in the scratch, on the
        // first iteration and after an ensemble resolve.
        let l_g = match self.reg.parts() {
            Some(_) if self.lg_fresh => Some(&self.lg),
            Some((lp, lm)) => {
                pack_blocks(&self.g, &self.blocks, g_blocks);
                typed_parts(lp, lm, g_blocks, lg);
                Some(&*lg)
            }
            None => None,
        };
        // G stays finite outside its own blocks (zeros never move), so
        // the updated entries decide divergence.
        let mut finite = true;
        for (k, (rows, cols)) in self.blocks.iter().enumerate() {
            finite &= multiplicative_update(
                &mut self.g,
                prod,
                gb_pos,
                gb_neg,
                l_g.map(|(lp, lm)| (&lp[k], &lm[k])),
                self.cfg.lambda,
                rows.clone(),
                cols.clone(),
            );
        }
        self.lg_fresh = false;
        if !finite {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // ---- Step 5: row-l1 normalisation (Eq. 22) ------------------
        if self.cfg.l1_row_normalize {
            for (rows, cols) in &self.blocks {
                for i in rows.clone() {
                    normalize_l1(&mut self.g.row_mut(i)[cols.clone()], 1e-300);
                }
            }
        }
        self.clock.lap(PHASE_UPDATE);
        Ok(())
    }

    /// Steps 6–7 of iteration `t` once `R·G` holds the updated `G`:
    /// `GᵀG`, the `E_R` update, the objective and the convergence
    /// check; for the next update, `V` (`E_R` fits) and a fixed
    /// Laplacian's `L±·G`. `refresh_ns` is this fit's share of the `R·G`
    /// refresh, for the phase clock.
    fn residual(
        &mut self,
        t: usize,
        problem: &Problem<'_>,
        scratch: &mut Scratch,
        refresh_ns: u64,
    ) -> Result<()> {
        let (n, c) = (self.data.total_objects(), self.data.total_clusters());
        let cfg = &self.cfg;
        self.clock.mark();
        typed_gram(&self.g, &self.blocks, &mut self.gram);
        self.clock.lap_with(PHASE_SPMM, refresh_ns);

        // ‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ per
        // row, no Q matrix. With U = G·S the cross term is rg_i·u_i, and
        // the quadratic form u_i·v_i with V = G·(S GᵀG), the next
        // update's U·GᵀG for this G and S (E_R fits), or g_i·M·g_iᵀ with
        // M = S GᵀG Sᵀ on the own columns (the others: g_i is zero
        // elsewhere). Cancellation is clamped at zero.
        let Scratch {
            prod: u,
            gb_pos: gmt,
            ..
        } = scratch;
        for (rows, cols) in &self.blocks {
            matmul_block(&self.g, &self.s, rows.clone(), cols.clone(), 0..c, u);
        }
        let r_row_sq = &problem.r_row_sq;
        let q_norm =
            |i: usize, cross: f64, quad: f64| (r_row_sq[i] - 2.0 * cross + quad).max(0.0).sqrt();
        let mut q_norms = vec![0.0; n];
        if cfg.use_error_matrix {
            let w = matmul(&self.s, &self.gram)?;
            self.v.reshape(n, c);
            for (rows, cols) in &self.blocks {
                matmul_block(&self.g, &w, rows.clone(), cols.clone(), 0..c, &mut self.v);
            }
            for (i, q) in q_norms.iter_mut().enumerate() {
                let [cross, quad] = vecops::dots(u.row(i), [self.rg.row(i), self.v.row(i)]);
                *q = q_norm(i, cross, quad);
            }
        } else {
            let mt = matmul(&matmul(&self.s, &self.gram)?, &self.s.transpose())?.transpose();
            for (rows, cols) in &self.blocks {
                matmul_block(&self.g, &mt, rows.clone(), cols.clone(), cols.clone(), gmt);
                for i in rows.clone() {
                    let gi = &self.g.row(i)[cols.clone()];
                    let mut quad = 0.0;
                    for (&gj, &tj) in gi.iter().zip(&gmt.row(i)[cols.clone()]) {
                        if gj != 0.0 {
                            quad += gj * tj;
                        }
                    }
                    let [cross] = vecops::dots(u.row(i), [self.rg.row(i)]);
                    q_norms[i] = q_norm(i, cross, quad);
                }
            }
        }
        let mut fit = 0.0;
        let mut l21 = 0.0;
        if cfg.use_error_matrix {
            let factors = self.f_er.iter_mut().zip(&mut self.one_minus_f);
            for ((f, one_minus_f), &q) in factors.zip(&q_norms) {
                // (βD + I)⁻¹ row factor: f = 1 / (1 + β / (2‖q_i‖ + ζ)).
                *f = 1.0 / (1.0 + cfg.beta / (2.0 * q + ZETA));
                *one_minus_f = 1.0 - *f;
                // ‖Q − E_R‖² = Σ (1−f)²‖q‖², ‖E_R‖₂,₁ = Σ f‖q‖.
                let residual = *one_minus_f * q;
                fit += residual * residual;
                l21 += *f * q;
            }
            self.error_row_norms = self
                .f_er
                .iter()
                .zip(&q_norms)
                .map(|(f, qn)| f * qn)
                .collect();
            self.final_q_norms = q_norms;
        } else {
            fit = q_norms.iter().map(|x| x * x).sum();
        }

        // ---- Objective J₄ (Eq. 15) ----------------------------------
        // A fixed Laplacian's trace comes off L±·G of this G, which the
        // next update reads too; RMC's off its union pattern.
        let reg_term = if let RegState::Fixed { lp, lm } = self.reg {
            pack_blocks(&self.g, &self.blocks, &mut scratch.g_blocks);
            typed_parts(lp, lm, &scratch.g_blocks, &mut self.lg);
            self.lg_fresh = true;
            let (lpg, lmg) = &self.lg;
            parts_trace(
                scratch
                    .g_blocks
                    .iter()
                    .zip(lpg)
                    .zip(lmg)
                    .map(|((g, p), m)| (g, p, m)),
            )
        } else {
            self.reg.trace(&self.g)?
        };
        let l21_term = if cfg.use_error_matrix {
            cfg.beta * l21
        } else {
            0.0
        };
        let obj = fit + l21_term + cfg.lambda * reg_term;
        self.objective_trace.push(obj);
        self.clock.lap(PHASE_RESIDUAL);

        if self.clock.enabled() {
            let prev_obj = self.prev_obj;
            let rel_change = if t > 0 {
                (prev_obj - obj).abs() / prev_obj.abs().max(1.0)
            } else {
                0.0
            };
            let er_active_rows = if self.error_row_norms.is_empty() {
                0
            } else {
                let max = self.error_row_norms.iter().cloned().fold(0.0, f64::max);
                let threshold = ERROR_EXPORT_REL * max;
                if max > 0.0 {
                    self.error_row_norms
                        .iter()
                        .filter(|&&x| x >= threshold)
                        .count()
                } else {
                    0
                }
            };
            self.iter_telemetry.push(IterTelemetry {
                objective: obj,
                rel_change,
                er_active_rows,
            });
        }

        if let Some(ty) = cfg.record_labels_for_type {
            self.label_trace
                .push(self.data.labels_from_membership(&self.g, ty));
        }

        // ---- Convergence ---------------------------------------------
        if t > 0 {
            let denom = self.prev_obj.abs().max(1.0);
            if (self.prev_obj - obj).abs() / denom < cfg.tol {
                self.converged = true;
                return Ok(());
            }
        }
        self.prev_obj = obj;
        Ok(())
    }

    /// Whether the fit has converged or spent its iteration budget.
    fn done(&self) -> bool {
        self.converged || self.iterations == self.cfg.max_iter
    }

    /// Report the finished fit's telemetry and package its result.
    fn finish(self, problem: &Problem<'_>) -> Result<EngineResult> {
        let (n, c) = (self.data.total_objects(), self.data.total_clusters());
        if self.clock.enabled() {
            let reg_handle = mtrl_obs::global();
            let iters = self.iterations as u64;
            for (name, phase) in PHASE_SPANS {
                reg_handle.record_span_agg(
                    name,
                    iters,
                    self.clock.ns[phase],
                    self.clock.max_ns[phase],
                );
            }
            reg_handle.add("engine.fits", 1);
            reg_handle.add("engine.iterations", iters);
            reg_handle.record_fit(FitTelemetry {
                label: "engine.fit".to_string(),
                n,
                c,
                nnz: problem.r.nnz(),
                iterations: self.iterations,
                converged: self.converged,
                spmm_ns: self.clock.ns[PHASE_SPMM],
                lowrank_ns: self.clock.ns[PHASE_LOWRANK],
                update_ns: self.clock.ns[PHASE_UPDATE],
                residual_ns: self.clock.ns[PHASE_RESIDUAL],
                iters: self.iter_telemetry,
            });
        }

        let error_rows = if self.cfg.use_error_matrix {
            materialize_error_rows(
                problem.r,
                &self.g,
                &self.s,
                &self.f_er,
                &self.final_q_norms,
                &self.error_row_norms,
            )?
        } else {
            RowSparse::new(n, n)
        };

        Ok(EngineResult {
            g: self.g,
            s: self.s,
            objective_trace: self.objective_trace,
            label_trace: self.label_trace,
            iterations: self.iterations,
            converged: self.converged,
            ensemble_weights: self.ensemble_weights,
            error_row_norms: self.error_row_norms,
            error_rows,
        })
    }
}

/// The preconditions of the typed loop on `G0`: every entry finite, and
/// every entry outside its row's type's cluster columns zero. (A `-0.0`
/// counts as zero.)
fn validate_typed_membership(g0: &Mat, blocks: &[(Range<usize>, Range<usize>)]) -> Result<()> {
    if g0.has_non_finite() {
        return Err(RhchmeError::InvalidData("G0 has a non-finite entry".into()));
    }
    for (rows, cols) in blocks {
        for i in rows.clone() {
            let row = g0.row(i);
            let outside = row[..cols.start].iter().chain(&row[cols.end..]);
            if outside.into_iter().any(|&v| v != 0.0) {
                return Err(RhchmeError::InvalidData(format!(
                    "G0 row {i} has a nonzero outside its type's cluster columns {cols:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Copy each type's own block of `g` into its packed `n_k x c_k` matrix.
fn pack_blocks(g: &Mat, blocks: &[(Range<usize>, Range<usize>)], packed: &mut [Mat]) {
    for ((rows, cols), p) in blocks.iter().zip(packed.iter_mut()) {
        for (local, i) in rows.clone().enumerate() {
            p.row_mut(local).copy_from_slice(&g.row(i)[cols.clone()]);
        }
    }
}

/// `R·G` for a block-diagonal `G` given as its packed blocks, into
/// `out`, whose entries outside the nonempty blocks of `R` must be `+0`
/// (a zeroed matrix, written only here): block `(k, l)` of `R` times
/// `G`'s block `l`, into type `k`'s rows and type `l`'s cluster columns.
/// Each entry sums `R_ij·g_j` over row `i`'s entries of one type only,
/// which are all the nonzero terms of the full-width
/// [`Csr::spmm_dense`] entry (the others are a finite value times a zero
/// of `G`), in the same order — so `out` equals `spmm_dense` bit for
/// bit, and an entry with no terms is the `+0` it would sum to. The
/// oracle of the stacked refresh ([`Problem::refresh`]) on one fit.
#[cfg(test)]
fn typed_spmm(
    r_blocks: &[Vec<Csr>],
    g_blocks: &[Mat],
    blocks: &[(Range<usize>, Range<usize>)],
    out: &mut Mat,
) {
    for (row_blocks, (rows, _)) in r_blocks.iter().zip(blocks) {
        for ((r_kl, g_l), (_, cols)) in row_blocks.iter().zip(g_blocks).zip(blocks) {
            if r_kl.nnz() > 0 {
                r_kl.spmm_into(g_l, out, rows.start, cols.start);
            }
        }
    }
}

/// `GᵀG` of a type-blocked `G` into `out`: each type's diagonal block
/// from its own rows, `+0` elsewhere — the entries [`gram`] computes for
/// a finite `G`, whose off-block products are all `±0`.
fn typed_gram(g: &Mat, blocks: &[(Range<usize>, Range<usize>)], out: &mut Mat) {
    out.as_mut_slice().fill(0.0);
    for (rows, cols) in blocks {
        matmul_tn_block(g, g, rows.clone(), cols.clone(), cols.clone(), out);
    }
}

/// Eq. 22 on one row's own columns: scale them to unit ℓ1 norm unless
/// the norm is at most `floor` — [`Mat::normalize_rows_l1`] on a row
/// whose other entries are zeros.
fn normalize_l1(row: &mut [f64], floor: f64) {
    let s: f64 = row.iter().map(|x| x.abs()).sum();
    if s > floor {
        let inv = 1.0 / s;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// `(L⁺·G, L⁻·G)` on each type's own block from `G`'s packed blocks:
/// `lg.0[k] = L⁺_k · G_k` and `lg.1[k] = L⁻_k · G_k`, each entry
/// summed in the order of [`SparseBlockDiag::mul_dense`], so equal to
/// that product's entry in type `k`'s rows and cluster columns.
fn typed_parts(
    lp: &SparseBlockDiag,
    lm: &SparseBlockDiag,
    g_blocks: &[Mat],
    lg: &mut (Vec<Mat>, Vec<Mat>),
) {
    for (part, out) in [(lp, &mut lg.0), (lm, &mut lg.1)] {
        out.resize_with(g_blocks.len(), Mat::default);
        for (k, (g_k, out_k)) in g_blocks.iter().zip(out.iter_mut()).enumerate() {
            out_k.reshape(g_k.rows(), g_k.cols());
            part.block(k).spmm_into(g_k, out_k, 0, 0);
        }
    }
}

/// The regulariser trace read off the part products:
/// `tr(GᵀLG) = Σ_i g_i·((L⁺G)_i − (L⁻G)_i)`, one `g·(p − m)` per entry
/// of each `(G, L⁺G, L⁻G)` block in turn, row-major, summed from `+0`.
fn parts_trace<'a>(blocks: impl IntoIterator<Item = (&'a Mat, &'a Mat, &'a Mat)>) -> f64 {
    let mut acc = 0.0;
    for (g, p, m) in blocks {
        for ((&gv, &pv), &mv) in g.as_slice().iter().zip(p.as_slice()).zip(m.as_slice()) {
            acc += gv * (pv - mv);
        }
    }
    acc
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
) -> Result<RowSparse> {
    let n = r.rows();
    let mut out = RowSparse::new(n, n);
    let max = row_norms.iter().cloned().fold(0.0, f64::max);
    if max <= 0.0 {
        return Ok(out);
    }
    let threshold = ERROR_EXPORT_REL * max;
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
    let prepared = PreparedReg::new(reg);
    let mut reg_state = RegState::new(&prepared, data.cluster_spec());
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
        let ginv = ridge_inverse(&gram_g, GRAM_RIDGE)?;
        let gtm = matmul_tn(&g, &m1)?; // Gᵀ(R − E_R)G, c x c
        s = matmul(&matmul(&ginv, &gtm)?, &ginv)?;

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        let a = matmul(&m1, &s.transpose())?; // (R − E_R) G Sᵀ, n x c
        let b = matmul_tn(&s, &matmul(&gram_g, &s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        let gb_pos = matmul(&g, &b_pos)?;
        let gb_neg = matmul(&g, &b_neg)?;
        let l_g = reg_state.part_products(&g)?;
        let l_g = l_g.as_ref().map(|(lp, lm)| (lp, lm));
        multiplicative_update(&mut g, &a, &gb_pos, &gb_neg, l_g, cfg.lambda, 0..n, 0..c);
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
                *f = 1.0 / (1.0 + cfg.beta / (2.0 * q_norms[i] + ZETA));
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
            let threshold = ERROR_EXPORT_REL * max;
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
                let w = pnn_graph(f, 5, WeightScheme::Cosine, &GraphBackend::Exact);
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
    /// [`UnionEnsemble`]: candidate traces by the per-block quadratic form
    /// (`trace_quad` below),
    /// the combination by merging candidates one by one, the split by
    /// [`SparseBlockDiag::split_parts`].
    fn resolve_oracle(
        candidates: &[SparseBlockDiag],
        mu: f64,
        g: &Mat,
        blocks: &[(Range<usize>, Range<usize>)],
    ) -> (Vec<f64>, SparseBlockDiag, SparseBlockDiag, SparseBlockDiag) {
        let traces: Vec<f64> = candidates
            .iter()
            .map(|c| trace_quad(c, g, blocks))
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
            let pattern = union_pattern(cands);
            let mut ens = UnionEnsemble::new(cands, 0.7, &pattern, data.cluster_spec());
            for seed in 0..4 {
                let mut g = init_g(&data, seed);
                if seed == 3 {
                    g.as_mut_slice()[5] = -0.0;
                }
                let beta = ens.resolve(&g);
                let (beta_o, l_o, lp_o, lm_o) = resolve_oracle(cands, 0.7, &g, &layout(&data));
                assert!(same_bits(&beta, &beta_o), "β, {n_cands} candidates");
                let (lp, lm) = &ens.parts;
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
                let t_o = trace_quad(&l_o, &g, &layout(&data));
                assert!(same_bits(&[t], &[t_o]), "trace");
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
                            &pnn_graph(f, p, scheme, &GraphBackend::Exact),
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
        assert!(res.error_rows.active_iter().count() > 0);
        assert!(res.error_rows.active_iter().count() < n);
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
    fn rejects_g0_with_a_nonzero_outside_its_types_clusters() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let mut g0 = init_g(&data, 8);
        // Row 0 is a document; the last cluster column belongs to concepts.
        let last = data.total_clusters() - 1;
        assert!(!data.cluster_spec().range(0).contains(&last));
        g0[(0, last)] = 0.25;
        let res = run_engine(
            &r,
            &data,
            &GraphRegularizer::None,
            g0.clone(),
            &EngineConfig::default(),
        );
        assert!(matches!(res, Err(RhchmeError::InvalidData(_))), "{res:?}");
        // A -0.0 there is a zero.
        g0[(0, last)] = -0.0;
        assert!(run_engine(
            &r,
            &data,
            &GraphRegularizer::None,
            g0,
            &EngineConfig::default()
        )
        .is_ok());
    }

    #[test]
    fn rejects_a_laplacian_whose_blocks_are_not_the_types() {
        // One block over all objects: each row's L·G would mix types.
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let n = data.total_objects();
        let one_block = SparseBlockDiag::new(vec![Csr::identity(n)]).unwrap();
        for reg in [
            GraphRegularizer::Fixed(one_block.clone()),
            GraphRegularizer::Ensemble {
                candidates: vec![one_block],
                mu: 1.0,
            },
        ] {
            let res = run_engine(&r, &data, &reg, init_g(&data, 8), &EngineConfig::default());
            assert!(matches!(res, Err(RhchmeError::InvalidData(_))), "{res:?}");
        }
    }

    /// Every float of two results, bit for bit.
    fn assert_same_fit(a: &EngineResult, b: &EngineResult, what: &str) {
        assert!(same_bits(a.g.as_slice(), b.g.as_slice()), "{what}: G");
        assert!(same_bits(a.s.as_slice(), b.s.as_slice()), "{what}: S");
        assert!(
            same_bits(&a.objective_trace, &b.objective_trace),
            "{what}: objective trace"
        );
        assert!(
            same_bits(&a.error_row_norms, &b.error_row_norms),
            "{what}: E_R norms"
        );
        assert_eq!(a.label_trace, b.label_trace, "{what}: label trace");
        assert_eq!(
            (a.iterations, a.converged),
            (b.iterations, b.converged),
            "{what}"
        );
        let weights = |r: &EngineResult| r.ensemble_weights.clone().unwrap_or_default();
        assert!(same_bits(&weights(a), &weights(b)), "{what}: β");
        assert_eq!(
            a.error_rows.active_iter().count(),
            b.error_rows.active_iter().count()
        );
        for ((i, x), (j, y)) in a.error_rows.active_iter().zip(b.error_rows.active_iter()) {
            assert!(i == j && same_bits(x, y), "{what}: E_R row {i}");
        }
    }

    #[test]
    fn lockstep_fits_equal_solo_fits() {
        // Fits of every regulariser kind and two cluster layouts in one
        // batch, two of them sharing a regulariser: one converges early,
        // one has no iterations, the rest run their budgets. Each equals
        // its solo fit bit for bit at 1 and 4 threads.
        let (data, _) = tiny_data();
        let wide = data.with_cluster_counts(vec![3, 4, 2]).unwrap();
        let r = data.assemble_r_csr();
        let feats = data.all_features();
        let fixed = GraphRegularizer::Fixed(pnn_block_laplacian(&data));
        let rmc = GraphRegularizer::Ensemble {
            candidates: crate::intra::rmc_candidates(&feats, LaplacianKind::SymNormalized, None)
                .unwrap(),
            mu: 0.7,
        };
        let robust = EngineConfig {
            lambda: 0.5,
            beta: 10.0,
            max_iter: 40,
            tol: 1e-3,
            record_labels_for_type: Some(0),
            ..EngineConfig::default()
        };
        let plain = EngineConfig {
            lambda: 0.5,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 9,
            tol: 0.0,
            ..EngineConfig::default()
        };
        let cases: Vec<(&MultiTypeData, &GraphRegularizer, Mat, EngineConfig)> = vec![
            (&data, &fixed, init_g(&data, 1), robust.clone()),
            (
                &wide,
                &GraphRegularizer::None,
                init_g(&wide, 2),
                plain.clone(),
            ),
            (&wide, &rmc, init_g(&wide, 3), plain.clone()),
            (&data, &fixed, init_g(&data, 4), plain.clone()),
            (
                &data,
                &rmc,
                init_g(&data, 5),
                EngineConfig {
                    max_iter: 0,
                    ..robust.clone()
                },
            ),
            (&wide, &fixed, init_g(&wide, 6), robust),
        ];
        let before = mtrl_linalg::par::num_threads();
        for threads in [1usize, 4] {
            mtrl_linalg::par::set_num_threads(threads);
            let fits = cases
                .iter()
                .map(|(data, reg, g0, cfg)| LockstepFit {
                    data,
                    reg,
                    g0: g0.clone(),
                    cfg: cfg.clone(),
                })
                .collect();
            let batch = run_engine_lockstep(&r, fits).unwrap();
            assert_eq!(batch.len(), cases.len());
            for (i, ((data, reg, g0, cfg), got)) in cases.iter().zip(&batch).enumerate() {
                let solo = run_engine(&r, data, reg, g0.clone(), cfg).unwrap();
                assert_same_fit(got, &solo, &format!("fit {i}, {threads} threads"));
            }
            assert!(batch[0].converged && batch[0].iterations < 40);
            assert_eq!(batch[4].iterations, 0);
        }
        mtrl_linalg::par::set_num_threads(before);
        assert!(run_engine_lockstep(&r, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn lockstep_returns_the_lowest_indexed_failure() {
        // A batch stops at the error a sequential run would return: that
        // of the lowest-indexed failing fit, even when a later fit fails
        // first in time; a fit that fails validation ends the batch there.
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let (lp, lm) = pnn_block_laplacian(&data).split_parts();
        // A Laplacian whose negative part outweighs its positive part by
        // `k` makes the update grow G by about √k per iteration, so G
        // overflows after a number of iterations set by `k`.
        let blowing = |k: f64| GraphRegularizer::Fixed(lp.lin_comb(1.0, &lm, -k).unwrap());
        let (late, early) = (blowing(1e60), blowing(1e300));
        let cfg = EngineConfig {
            lambda: 1.0,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 30,
            tol: 0.0,
            ..EngineConfig::default()
        };
        let converging = EngineConfig {
            tol: 1e-2,
            ..cfg.clone()
        };
        let mut bad_g0 = init_g(&data, 3);
        bad_g0[(0, 0)] = f64::NAN;
        let none = GraphRegularizer::None;
        let fit = |reg, g0: Mat, cfg: &EngineConfig| (reg, g0, cfg.clone());
        let batches: Vec<Vec<(&GraphRegularizer, Mat, EngineConfig)>> = vec![
            vec![
                fit(&none, init_g(&data, 1), &converging),
                fit(&late, init_g(&data, 2), &cfg),
                fit(&early, init_g(&data, 2), &cfg),
                fit(&none, bad_g0.clone(), &cfg),
                fit(&none, init_g(&data, 4), &cfg),
            ],
            vec![
                fit(&none, init_g(&data, 1), &cfg),
                fit(&none, bad_g0, &cfg),
                fit(&early, init_g(&data, 2), &cfg),
            ],
        ];
        for (b, batch) in batches.into_iter().enumerate() {
            let sequential = batch
                .iter()
                .map(|(reg, g0, cfg)| run_engine(&r, &data, reg, g0.clone(), cfg))
                .find_map(|res| res.err())
                .expect("a failing fit");
            if b == 0 {
                // The premise: fit 1 fails after fit 2 does.
                let iteration = |reg| match run_engine(&r, &data, reg, init_g(&data, 2), &cfg) {
                    Err(RhchmeError::Diverged { iteration }) => iteration,
                    other => panic!("{other:?}"),
                };
                assert!(iteration(&late) > iteration(&early));
            }
            let fits = batch
                .into_iter()
                .map(|(reg, g0, cfg)| LockstepFit {
                    data: &data,
                    reg,
                    g0,
                    cfg,
                })
                .collect();
            let got = run_engine_lockstep(&r, fits).expect_err("a failing fit");
            assert_eq!(format!("{got:?}"), format!("{sequential:?}"), "batch {b}");
        }
    }

    #[test]
    fn rejects_non_finite_g0() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut g0 = init_g(&data, 8);
            g0[(3, 0)] = bad;
            let res = run_engine(
                &r,
                &data,
                &GraphRegularizer::None,
                g0,
                &EngineConfig::default(),
            );
            assert!(
                matches!(res, Err(RhchmeError::InvalidData(_))),
                "{bad}: {res:?}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_r() {
        let (data, _) = tiny_data();
        let g0 = init_g(&data, 8);
        let base = data.assemble_r_csr();
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut rows: Vec<(Vec<usize>, Vec<f64>)> = (0..base.rows())
                .map(|i| (base.row(i).0.to_vec(), base.row(i).1.to_vec()))
                .collect();
            rows[3].1[0] = bad;
            let r = Csr::from_sparse_rows(&rows, base.cols());
            let res = run_engine(
                &r,
                &data,
                &GraphRegularizer::None,
                g0.clone(),
                &EngineConfig::default(),
            );
            assert!(
                matches!(res, Err(RhchmeError::InvalidData(_))),
                "{bad}: {res:?}"
            );
        }
    }

    #[test]
    fn an_r_with_type_self_entries_runs_the_same_model() {
        // `MultiTypeData` never assembles a type-self block, but
        // `run_engine` takes `R` on its own: the typed R·G splits R by
        // column type, own type included, so such an R is fitted as the
        // dense reference fits it.
        let (data, _) = tiny_data();
        let mut dense = data.assemble_r();
        let docs = data.spec().range(0);
        for i in docs.clone().take(6) {
            let j = docs.start + (i + 3) % docs.len();
            dense[(i, j)] = 0.5;
            dense[(j, i)] = 0.5;
        }
        let r = Csr::from_dense(&dense, 0.0);
        let cfg = EngineConfig {
            lambda: 0.5,
            beta: 10.0,
            max_iter: 12,
            tol: 0.0,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Fixed(pnn_block_laplacian(&data));
        let g0 = init_g(&data, 9);
        let sparse = run_engine(&r, &data, &reg, g0.clone(), &cfg).unwrap();
        let reference = run_engine_dense_reference(&dense, &data, &reg, g0, &cfg).unwrap();
        for (a, b) in sparse
            .objective_trace
            .iter()
            .zip(&reference.objective_trace)
        {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    /// The layout of [`tiny_data`] as the engine derives it.
    fn layout(data: &MultiTypeData) -> Vec<(Range<usize>, Range<usize>)> {
        (0..data.num_types())
            .map(|k| (data.spec().range(k), data.cluster_spec().range(k)))
            .collect()
    }

    /// The residual's two terms as the loop summed them before `U` and
    /// `V`: `(R G Sᵀ)_i·g_i` from `-0`, and `g_i M g_iᵀ` over nonzero
    /// `g_ij` with `M·g_i` summed from `-0` over nonzero `g_ik`.
    fn residual_oracle(rg: &Mat, st: &Mat, g: &Mat, m: &Mat) -> Vec<(f64, f64)> {
        let rgst = matmul(rg, st).unwrap();
        (0..g.rows())
            .map(|i| {
                let gi = g.row(i);
                let cross: f64 = rgst.row(i).iter().zip(gi).map(|(x, y)| x * y).sum();
                let mut quad = 0.0;
                for (j, &gj) in gi.iter().enumerate() {
                    if gj == 0.0 {
                        continue;
                    }
                    let mut t = -0.0;
                    for (k, &gk) in gi.iter().enumerate() {
                        if gk != 0.0 {
                            t += gk * m[(j, k)];
                        }
                    }
                    quad += gj * t;
                }
                (cross, quad)
            })
            .collect()
    }

    /// `tr(GᵀLG)` as the loop read it before the part products (the
    /// former `SparseBlockDiag::trace_quad`): per block, the quadratic
    /// form on `G`'s packed block, the blocks summed in order.
    fn trace_quad(l: &SparseBlockDiag, g: &Mat, blocks: &[(Range<usize>, Range<usize>)]) -> f64 {
        packed_blocks(g, blocks)
            .iter()
            .enumerate()
            .map(|(k, g_k)| l.block(k).quad_form(g_k))
            .sum()
    }

    /// `G`'s own blocks, packed.
    fn packed_blocks(g: &Mat, blocks: &[(Range<usize>, Range<usize>)]) -> Vec<Mat> {
        let mut packed: Vec<Mat> = blocks
            .iter()
            .map(|(r, cl)| Mat::zeros(r.len(), cl.len()))
            .collect();
        pack_blocks(g, blocks, &mut packed);
        packed
    }

    #[test]
    fn typed_loop_kernels_match_the_full_width_ones() {
        // Every typed step of one iteration against the full-width kernel
        // it stands for, bit for bit: R·G (spmm_dense), GᵀG (gram) and
        // L±·G (mul_dense); and the residual's terms through U = G·S and
        // V = G·(S·GᵀG) against the full-width forms they replaced, to
        // rounding. G carries -0.0 and all-zero rows, S negative values;
        // 1 and 4 threads.
        let (data, _) = tiny_data();
        let blocks = layout(&data);
        let (n, c) = (data.total_objects(), data.total_clusters());
        let lap = pnn_block_laplacian(&data);
        let (lp, lm) = lap.split_parts();
        let before = mtrl_linalg::par::num_threads();
        let r = data.assemble_r_csr();
        let mut g = init_g(&data, 5);
        for i in (7..n).step_by(9) {
            g.row_mut(i).iter_mut().for_each(|v| *v = 0.0);
        }
        for &(i, j) in &[(2usize, 0usize), (30, 3), (40, 5)] {
            if blocks
                .iter()
                .any(|(r, cl)| r.contains(&i) && cl.contains(&j))
            {
                g[(i, j)] = -0.0;
            }
        }
        let s = mtrl_linalg::random::rand_uniform(c, c, -1.0, 1.0, 7);
        let st = s.transpose();
        for threads in [1usize, 4] {
            mtrl_linalg::par::set_num_threads(threads);
            let packed = packed_blocks(&g, &blocks);
            let mut rg = Mat::zeros(n, c);
            typed_spmm(
                &r.split_blocks(data.spec(), data.spec()),
                &packed,
                &blocks,
                &mut rg,
            );
            assert!(same_bits(rg.as_slice(), r.spmm_dense(&g).as_slice()), "R·G");
            let mut k = Mat::filled(c, c, 9.0);
            typed_gram(&g, &blocks, &mut k);
            assert!(same_bits(k.as_slice(), gram(&g).as_slice()), "GᵀG");
            let mut lg = Default::default();
            typed_parts(&lp, &lm, &packed, &mut lg);
            for (part, typed) in [(&lp, &lg.0), (&lm, &lg.1)] {
                let full = part.mul_dense(&g).unwrap();
                for ((rows, cols), block) in blocks.iter().zip(typed) {
                    for (local, i) in rows.clone().enumerate() {
                        assert!(same_bits(block.row(local), &full.row(i)[cols.clone()]));
                    }
                }
            }
            let m = matmul(&matmul(&s, &k).unwrap(), &st).unwrap();
            let u = matmul(&g, &s).unwrap();
            let v = matmul(&g, &matmul(&s, &k).unwrap()).unwrap();
            for (i, &(cross, quad)) in residual_oracle(&rg, &st, &g, &m).iter().enumerate() {
                let [x, q] = vecops::dots(u.row(i), [rg.row(i), v.row(i)]);
                let scale = |a: &[f64], b: &[f64]| -> f64 {
                    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum::<f64>() + 1.0
                };
                let (sx, sq) = (scale(u.row(i), rg.row(i)), scale(u.row(i), v.row(i)));
                assert!(
                    (x - cross).abs() <= 1e-12 * sx,
                    "row {i} cross {x} vs {cross}"
                );
                assert!((q - quad).abs() <= 1e-12 * sq, "row {i} quad {q} vs {quad}");
            }
        }
        mtrl_linalg::par::set_num_threads(before);
    }

    #[test]
    fn trace_read_off_the_part_products_matches_the_quadratic_form() {
        // tr(GᵀLG) = Σ g_i·(L⁺G − L⁻G)_i on random block-diagonal G, the
        // typed loop's packed form and the dense reference's full-width
        // one, against the per-block quadratic form.
        let (data, _) = tiny_data();
        let blocks = layout(&data);
        let (n, c) = (data.total_objects(), data.total_clusters());
        let lap = pnn_block_laplacian(&data);
        let (lp, lm) = lap.split_parts();
        for seed in 0..8 {
            let noise = mtrl_linalg::random::rand_uniform(n, c, 0.0, 1.0, 40 + seed);
            let mut g = Mat::zeros(n, c);
            for (rows, cols) in &blocks {
                for i in rows.clone() {
                    for j in cols.clone() {
                        g[(i, j)] = noise[(i, j)];
                    }
                }
            }
            let expect = trace_quad(&lap, &g, &blocks);
            let packed = packed_blocks(&g, &blocks);
            let mut lg = Default::default();
            typed_parts(&lp, &lm, &packed, &mut lg);
            let typed = parts_trace(
                packed
                    .iter()
                    .zip(&lg.0)
                    .zip(&lg.1)
                    .map(|((g, p), m)| (g, p, m)),
            );
            let dense = RegState::Fixed { lp: &lp, lm: &lm }.trace(&g).unwrap();
            for got in [typed, dense] {
                assert!(
                    (got - expect).abs() <= 1e-12 * expect.abs(),
                    "seed {seed}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn typed_normalisation_matches_the_full_rows() {
        let (data, _) = tiny_data();
        let blocks = layout(&data);
        let mut g = init_g(&data, 3);
        g.row_mut(4).iter_mut().for_each(|v| *v = 0.0);
        g[(5, 0)] = -0.0;
        let mut full = g.clone();
        full.normalize_rows_l1(1e-300);
        for (rows, cols) in &blocks {
            for i in rows.clone() {
                normalize_l1(&mut g.row_mut(i)[cols.clone()], 1e-300);
            }
        }
        assert!(same_bits(g.as_slice(), full.as_slice()));
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
