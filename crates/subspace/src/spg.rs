//! Spectral Projected Gradient solver for Eq. (9) — paper Algorithm 1,
//! run on a per-object candidate support.
//!
//! Minimises `J₂(W) = γ‖X − XW‖²_F + ‖WWᵀ‖₁` over the closed convex set
//! `{W : W ≥ 0, diag(W) = 0, W_ij = 0 for j ∉ S_i}` (projection operator
//! Eq. 11, restricted to the support).
//!
//! # The candidate support
//!
//! Row `i` of `W` may only be nonzero on `S_i`: the
//! `K′ = min(CANDIDATES, n − 1)` objects `j ≠ i` with the largest inner
//! products `⟨x_i, x_j⟩` (ties broken by the lower index), read off the
//! Gram matrix `K = X Xᵀ`. Inner products, not Euclidean distances, rank
//! the candidates, so distant links within a linear subspace survive: a
//! point far out on a line has its largest inner products with the other
//! points of that line, however far apart they are. That argument is for
//! subspaces through the origin. Fig. 1's circles, lifted to quadratic
//! features, are affine slices instead, and with about 128 points the
//! far arc of a circle falls outside an object's 64 candidates: the
//! `fig1_manifold` bench links 0 of its 2,944 distant same-circle pairs,
//! where the unrestricted solver linked 38. Only `TOP_K = 10`
//! links per row survive the Laplacian's truncation anyway, and on
//! 330-document Large3 corpora 99.2–99.8 % of the unrestricted solver's
//! per-row top-10 links lie inside the top-64 candidates (and 97–98 %
//! reach the truncated graph; `tests/integration_subspace.rs`). For
//! `n ≤ CANDIDATES + 1` every `j ≠ i` is a candidate: the feasible set is
//! the paper's, and the solver performs the unrestricted Algorithm 1's
//! arithmetic, in the same order.
//!
//! This is the one deviation from the printed Algorithm 1 beyond the
//! notes below. It is the neighbourhood-restricted self-expression of
//! scalable subspace clustering, and the same locality the pNN
//! intra-manifolds of the related work rest on.
//!
//! # Cost
//!
//! The iterate `W`, `M = W·K` and the gradient live on the support, as
//! `n x (K′ + 1)` arrays (each row also carries its diagonal slot, held at
//! zero by the projection). The per-iteration product `D·K` restricted to
//! the support reads the blocks `K[S_i, S_i]` straight from the Gram:
//! `O(n·K′²)` per iteration instead of the unrestricted `O(nnz(W)·n)`.
//! It makes one pass per row `i`: the nonzero `D_i[b]` are compacted
//! into a term list first, and each term multiplies the gathered Gram
//! entries `K[S_i[b], S_i[a]]` into a local `CANDIDATES + 1`-lane
//! accumulator, fixed at that width whenever `n > CANDIDATES + 1`.
//! Every entry still sums its terms over ascending `b` and skips only
//! exact zeros of `D`, so the result is the scalar loop's, bit for bit,
//! at any thread count. Every line-search trial reuses the product
//! (`(W + ℓD)K = WK + ℓ·DK`). Around the product an iteration makes one
//! `O(n·K′)` pass over the arrays per phase: the direction with `‖D‖²`
//! and `⟨∇, D⟩`; each trial's `W + ℓD`, `M + ℓ·DK` and objective; and
//! the accepted step's gradient with the BB products. Each of those
//! sums keeps the row-major order and starting value of a separate
//! pass, so the fused passes change no bit either. On the 330-document
//! Large3 doc type the product takes ≈ 70 % of an iteration and runs
//! near the gather bound. The Gram itself is built once, in `O(n²·D)`
//! by a vectorising kernel, and is the only `n x n` buffer.
//!
//! # Notes on the printed pseudo-code
//!
//! The implementation deviates from the paper's printed pseudo-code
//! where the print is internally inconsistent (documented in
//! DESIGN.md §3):
//!
//! * The paper's gradient line places γ on the sparsity term while Eq. (9)
//!   places it on the fidelity term; the two differ only by rescaling the
//!   objective by `1/γ`. We implement the gradient of Eq. (9) as printed:
//!   `∇J₂ = 2γ(W K − K) + 2·1·colsum(W)ᵀ`, where `K = X Xᵀ` is the object
//!   Gram matrix (objects as rows) and the second term is `∂‖WWᵀ‖₁/∂W`
//!   for nonnegative `W`.
//! * The paper updates `σ ← yᵀy / sᵀy` and then steps `W − σ∇W`; that `σ`
//!   is the *reciprocal* of the Barzilai–Borwein BB2 step. We use the BB2
//!   step `σ ← sᵀy / yᵀy` (safeguarded to `[1e-10, 1e10]`), which is the
//!   standard SPG choice (Birgin–Martínez–Raydan, ref \[25\]).
//! * The line search is the nonmonotone Grippo–Lampariello–Lucidi rule
//!   over a sliding window of past objective values.

pub use crate::support::CANDIDATES;
use crate::support::{support_product, Support};
use mtrl_linalg::ops::row_gram;
use mtrl_linalg::{LinalgError, Mat};
use mtrl_sparse::{Csr, CsrBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// Configuration for the SPG subspace learner.
#[derive(Debug, Clone)]
pub struct SpgConfig {
    /// Noise-tolerance parameter γ of Eq. (9): larger γ assumes cleaner
    /// data (Sec. III-A). Paper's tuned default for the main experiments.
    pub gamma: f64,
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence threshold on the projected-gradient Frobenius norm,
    /// relative to the matrix size.
    pub tol: f64,
    /// Length of the nonmonotone line-search history window.
    pub history: usize,
    /// Sufficient-decrease constant δ of the Armijo condition.
    pub armijo: f64,
    /// Seed for the random initial `W₀` (paper: random initialisation).
    pub seed: u64,
}

impl Default for SpgConfig {
    fn default() -> Self {
        SpgConfig {
            gamma: 25.0,
            max_iter: 150,
            tol: 1e-5,
            history: 10,
            armijo: 1e-4,
            seed: 7,
        }
    }
}

/// Output of the SPG solver.
#[derive(Debug, Clone)]
pub struct SpgResult {
    /// The learned affinity (`n x n`, nonnegative, zero diagonal): row
    /// `i` stores its nonzero entries, at most `CANDIDATES` of them, all
    /// on the candidate support `S_i`.
    pub w: Csr,
    /// Objective value `J₂` after every iteration (monotone up to the
    /// nonmonotone window).
    pub objective_trace: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the projected-gradient criterion was met.
    pub converged: bool,
}

/// Learn the subspace affinity of one object type.
///
/// `data` holds one object per row (`n x D`). Returns the affinity `W`
/// with `W_ij > 0` intended for same-subspace pairs (Eq. 5).
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] for degenerate inputs
/// (fewer than 2 objects, a γ that is not positive and finite, a `tol`
/// that is negative or not finite, an `armijo` outside `(0, 1)`,
/// non-finite features or a Gram matrix that overflows).
pub fn spg_affinity(data: &Mat, cfg: &SpgConfig) -> Result<SpgResult, LinalgError> {
    let n = data.rows();
    if n < 2 {
        return Err(LinalgError::InvalidArgument(
            "spg_affinity: need at least 2 objects".into(),
        ));
    }
    if !(cfg.gamma > 0.0 && cfg.gamma.is_finite()) {
        return Err(LinalgError::InvalidArgument(format!(
            "spg_affinity: gamma must be positive and finite, got {}",
            cfg.gamma
        )));
    }
    if !(cfg.tol >= 0.0 && cfg.tol.is_finite()) {
        return Err(LinalgError::InvalidArgument(format!(
            "spg_affinity: tol must be non-negative and finite, got {}",
            cfg.tol
        )));
    }
    if !(cfg.armijo > 0.0 && cfg.armijo < 1.0) {
        return Err(LinalgError::InvalidArgument(format!(
            "spg_affinity: armijo must lie in (0, 1), got {}",
            cfg.armijo
        )));
    }
    if data.has_non_finite() {
        return Err(LinalgError::InvalidArgument(
            "spg_affinity: features must be finite".into(),
        ));
    }
    let k = {
        let _span = mtrl_obs::span!("subspace.gram");
        row_gram(data)
    };
    if k.has_non_finite() {
        return Err(LinalgError::InvalidArgument(
            "spg_affinity: feature inner products overflow".into(),
        ));
    }
    let support = {
        let _span = mtrl_obs::span!("subspace.candidates");
        Support::top_inner_products(&k, CANDIDATES)
    };
    Ok(solve(&k, &support, cfg))
}

/// Algorithm 1 on the support. Every matrix is `n x width`, entry
/// `(i, a)` standing for column `S_i[a]` of the `n x n` quantity; the
/// arithmetic, and its order, is the dense solver's restricted to the
/// support. An iteration is one support product and one pass over the
/// arrays per phase: the direction ([`direction`]), each line-search
/// trial ([`trial`]) and the accepted step ([`accept`]). Each iteration
/// is timed into the `subspace.spg` aggregate.
fn solve(k: &Mat, support: &Support, cfg: &SpgConfig) -> SpgResult {
    let n = k.rows();
    let width = support.width;
    let tr_k = k.trace();
    let mut k_sup = Mat::zeros(n, width); // K[i, S_i]
    for i in 0..n {
        let krow = k.row(i);
        for (v, &j) in k_sup.row_mut(i).iter_mut().zip(support.row(i)) {
            *v = krow[j];
        }
    }
    let at = Terms {
        k_sup: &k_sup,
        support,
        tr_k,
        gamma: cfg.gamma,
    };

    let mut w = initial_iterate(support, n, cfg.seed);
    // M = W K on the support, maintained incrementally across iterations.
    let mut m = Mat::zeros(n, width);
    support_product(k, support, &w, &mut m);
    let mut col_sums = vec![0.0; n];
    let mut obj = at.objective(&mut w, &mut m, &mut col_sums, |_, _, _| {});
    let mut grad = Mat::zeros(n, width);
    at.gradient(&m, &col_sums, &mut grad, |_, _| {});
    let [mut d, mut dk, mut w_try, mut m_try, mut grad_try] =
        std::array::from_fn(|_| Mat::zeros(n, width));

    let mut sigma = 1.0f64; // paper: σ ← 1
    let mut history = VecDeque::with_capacity(cfg.history + 1);
    history.push_back(obj);
    let mut trace = Vec::with_capacity(cfg.max_iter);
    let scale_tol = cfg.tol * (n as f64);
    let timed = mtrl_obs::enabled();
    let (mut total_ns, mut max_ns) = (0u64, 0u64);

    let mut converged = false;
    let mut iterations = 0;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        let start = timed.then(Instant::now);
        let accepted = 'step: {
            // Step 2: search direction D = P(W − σ∇) − W, with ‖D‖² and
            // ⟨∇, D⟩ for the Armijo condition. ⟨∇, D⟩ must be negative
            // by convexity of the feasible set; if not, the direction is
            // numerically dead.
            let (d_sq, gd) = direction(&w, &grad, sigma, support, &mut d);
            if d_sq.sqrt() <= scale_tol || gd >= 0.0 {
                break 'step false;
            }

            // D·K once, so every line-search trial is O(n·width).
            support_product(k, support, &d, &mut dk);
            let f_max = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);

            // Step 3: nonmonotone backtracking on ℓ ∈ (0, 1].
            let mut ell = 1.0f64;
            let mut accepted = false;
            for _ in 0..30 {
                let obj_try = trial(
                    &at,
                    (&w, &m),
                    ell,
                    (&d, &dk),
                    (&mut w_try, &mut m_try),
                    &mut col_sums,
                );
                if obj_try <= f_max + cfg.armijo * ell * gd {
                    // Steps 4-7: accept, update BB quantities.
                    let (sty, yty) =
                        accept(&at, (&w, &grad), (&w_try, &m_try), &col_sums, &mut grad_try);
                    sigma = if sty > 0.0 && yty > 0.0 {
                        (sty / yty).clamp(1e-10, 1e10)
                    } else {
                        1.0
                    };
                    std::mem::swap(&mut w, &mut w_try);
                    std::mem::swap(&mut m, &mut m_try);
                    std::mem::swap(&mut grad, &mut grad_try);
                    obj = obj_try;
                    accepted = true;
                    break;
                }
                ell *= 0.5;
            }
            history.push_back(obj);
            if history.len() > cfg.history {
                history.pop_front();
            }
            accepted
        };
        trace.push(obj);
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            total_ns = total_ns.saturating_add(ns);
            max_ns = max_ns.max(ns);
        }
        if !accepted {
            // A dead direction or an exhausted line search: the iterate
            // is numerically optimal.
            converged = true;
            break;
        }
    }
    if timed {
        mtrl_obs::global().record_span_agg("subspace.spg", iterations as u64, total_ns, max_ns);
    }

    let mut affinity = CsrBuilder::with_capacity(n, n, n * (width - 1));
    for i in 0..n {
        for (&v, &j) in w.row(i).iter().zip(support.row(i)) {
            affinity.push(j, v);
        }
        affinity.finish_row();
    }
    SpgResult {
        w: affinity.build(),
        objective_trace: trace,
        iterations,
        converged,
    }
}

/// Phase A: the search direction `D = P(W − σ∇) − W` into `d`, its
/// diagonal slot zeroed, with `(‖D‖², ⟨∇, D⟩)`, in one pass.
///
/// Both sums run in row-major order from `-0`, as `Iterator::sum` does,
/// over the row after its diagonal is zeroed.
fn direction(w: &Mat, grad: &Mat, sigma: f64, support: &Support, d: &mut Mat) -> (f64, f64) {
    let (mut d_sq, mut gd) = (-0.0, -0.0);
    for (i, &diag) in support.diag.iter().enumerate() {
        let drow = d.row_mut(i);
        for ((dv, &wv), &gv) in drow.iter_mut().zip(w.row(i)).zip(grad.row(i)) {
            let trial = wv + (-sigma) * gv;
            *dv = if trial < 0.0 { 0.0 } else { trial } - wv;
        }
        drow[diag] = 0.0;
        for (&dv, &gv) in drow.iter().zip(grad.row(i)) {
            d_sq += dv * dv;
            gd += gv * dv;
        }
    }
    (d_sq, gd)
}

/// Phase B: the trial point `W + ℓD`, `M + ℓ·DK` into `w_try`, `m_try`,
/// and `J₂` there, in one pass. Leaves the trial's column sums in
/// `col_sums`.
fn trial(
    at: &Terms,
    (w, m): (&Mat, &Mat),
    ell: f64,
    (d, dk): (&Mat, &Mat),
    (w_try, m_try): (&mut Mat, &mut Mat),
    col_sums: &mut [f64],
) -> f64 {
    at.objective(w_try, m_try, col_sums, |i, wrow, mrow| {
        for ((o, &wv), &dv) in wrow.iter_mut().zip(w.row(i)).zip(d.row(i)) {
            *o = wv + ell * dv;
        }
        for ((o, &mv), &dv) in mrow.iter_mut().zip(m.row(i)).zip(dk.row(i)) {
            *o = mv + ell * dv;
        }
    })
}

/// Phase C: the gradient at the accepted `W⁺` (with `M⁺ = W⁺K` and its
/// column sums) into `grad_new`, with the BB products `(sᵀy, yᵀy)` for
/// `s = W⁺ − W`, `y = ∇(W⁺) − ∇(W)`, in one pass. Both products run in
/// row-major order from `+0`.
fn accept(
    at: &Terms,
    (w, grad): (&Mat, &Mat),
    (w_new, m_new): (&Mat, &Mat),
    col_sums: &[f64],
    grad_new: &mut Mat,
) -> (f64, f64) {
    let (mut sty, mut yty) = (0.0, 0.0);
    at.gradient(m_new, col_sums, grad_new, |i, grow| {
        for (((&wo, &wn), &go), &gn) in w.row(i).iter().zip(w_new.row(i)).zip(grad.row(i)).zip(grow)
        {
            let s = wn - wo;
            let y = gn - go;
            sty += s * y;
            yty += y * y;
        }
    });
    (sty, yty)
}

/// What `J₂` and its gradient read besides the iterate: `k_sup =
/// K[i, S_i]` on the support, `tr K` and γ.
struct Terms<'a> {
    k_sup: &'a Mat,
    support: &'a Support,
    tr_k: f64,
    gamma: f64,
}

impl Terms<'_> {
    /// `J₂ = γ(tr K − 2 Σ W∘K + Σ (WK)∘W) + Σ_k colsum_k(W)²` for the `W`,
    /// `M = WK` that `fill(i, w_row, m_row)` writes row by row into `w`,
    /// `m` (rows it leaves alone are read as they are); leaves the column
    /// sums of `W` in `col_sums`.
    ///
    /// The fidelity expansion uses `‖X − WX‖² = tr((I−W)K(I−W)ᵀ)` with
    /// `K = XXᵀ`; for nonnegative `W`, `‖WWᵀ‖₁ = Σ_k (Σ_i W_ik)²`. Each
    /// row enters the sums as soon as it is written; both inner sums run
    /// in row-major order from `-0`, as `Iterator::sum` does, and each
    /// column sum over ascending rows from `+0`.
    fn objective(
        &self,
        w: &mut Mat,
        m: &mut Mat,
        col_sums: &mut [f64],
        mut fill: impl FnMut(usize, &mut [f64], &mut [f64]),
    ) -> f64 {
        let (mut wk, mut mw) = (-0.0, -0.0);
        assert_eq!(col_sums.len(), self.support.objects(), "one sum per column");
        col_sums.fill(0.0);
        for i in 0..w.rows() {
            let (wrow, mrow) = (w.row_mut(i), m.row_mut(i));
            fill(i, wrow, mrow);
            for (((&wv, &mv), &kv), &j) in wrow
                .iter()
                .zip(mrow.iter())
                .zip(self.k_sup.row(i))
                .zip(self.support.row(i))
            {
                wk += wv * kv;
                mw += mv * wv;
                // SAFETY: support columns are objects, so `j < n`, the
                // length of `col_sums` (asserted above).
                unsafe { *col_sums.get_unchecked_mut(j) += wv };
            }
        }
        let fidelity = self.tr_k - 2.0 * wk + mw;
        let sparsity: f64 = col_sums.iter().map(|c| c * c).sum();
        self.gamma * fidelity + sparsity
    }

    /// `∇J₂ = 2γ(M − K) + 2·1·colsum(W)ᵀ` on the support, into `g`, with
    /// `visit(i, g_row)` called on each row once it is written.
    fn gradient(
        &self,
        m: &Mat,
        col_sums: &[f64],
        g: &mut Mat,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        assert_eq!(col_sums.len(), self.support.objects(), "one sum per column");
        for i in 0..m.rows() {
            let grow = g.row_mut(i);
            for (((gv, &mv), &kv), &j) in grow
                .iter_mut()
                .zip(m.row(i))
                .zip(self.k_sup.row(i))
                .zip(self.support.row(i))
            {
                // SAFETY: `j < n`, the length of `col_sums` (asserted
                // above), as in `objective`.
                let col_sum = unsafe { *col_sums.get_unchecked(j) };
                *gv = 2.0 * self.gamma * (mv - kv) + 2.0 * col_sum;
            }
            visit(i, grow);
        }
    }
}

/// `W₀`: the uniform `[0, 1/n)` draws of a dense `n x n` start read at
/// the support (the stream is drawn in full, so the start does not
/// depend on the support), with the diagonal projected to zero. A draw
/// off the support is only stepped over: a float draw takes exactly one
/// word of the stream.
fn initial_iterate(support: &Support, n: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let hi = 1.0 / n as f64;
    let mut w = Mat::zeros(n, support.width);
    for i in 0..n {
        let mut drawn = 0;
        for (v, &j) in w.row_mut(i).iter_mut().zip(support.row(i)) {
            for _ in drawn..j {
                rng.next_u64();
            }
            let draw: f64 = rng.gen_range(0.0..hi);
            *v = if j == i { 0.0 } else { draw };
            drawn = j + 1;
        }
        for _ in drawn..n {
            rng.next_u64();
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_oracle::spg_dense;
    use crate::unfused_oracle::{solve_unfused, support_product_zero_tested};
    use mtrl_linalg::ops::matmul;
    use mtrl_linalg::random::{rand_normal, rand_uniform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `TOP_K` of `rhchme::intra`: the links per row the Laplacian keeps.
    const TOP_K: usize = 10;

    /// Points on two independent 1-D subspaces (lines) in R^4, with n/2
    /// points each: the classic identifiable multiple-subspace setup.
    fn two_lines(n_per: usize, noise: f64, seed: u64) -> (Mat, Vec<usize>) {
        let dir_a = [1.0, 2.0, 0.0, -1.0];
        let dir_b = [0.0, 1.0, -3.0, 1.0];
        let coeff = rand_uniform(2 * n_per, 1, 0.5, 2.0, seed);
        let noise_m = rand_normal(2 * n_per, 4, 0.0, noise, seed + 1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let dir = if i < n_per { &dir_a } else { &dir_b };
            labels.push(usize::from(i >= n_per));
            let c = coeff[(i, 0)];
            let row: Vec<f64> = (0..4).map(|d| c * dir[d] + noise_m[(i, d)]).collect();
            rows.push(row);
        }
        (Mat::from_rows(&rows).unwrap(), labels)
    }

    /// Column indices of the `k` largest entries of each row (ties to
    /// the lower index), ascending.
    fn top_k_supports(w: &Mat, k: usize) -> Vec<Vec<usize>> {
        (0..w.rows())
            .map(|i| {
                let row = w.row(i);
                let mut order: Vec<usize> = (0..row.len()).filter(|&j| row[j] > 0.0).collect();
                order.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
                order.truncate(k);
                order.sort_unstable();
                order
            })
            .collect()
    }

    #[test]
    fn constraints_hold_at_solution() {
        let (data, _) = two_lines(8, 0.01, 1);
        let res = spg_affinity(&data, &SpgConfig::default()).unwrap();
        let w = res.w.to_dense();
        assert!(w.min() >= 0.0, "negative affinity");
        for i in 0..data.rows() {
            assert_eq!(w[(i, i)], 0.0, "nonzero diagonal");
        }
        assert!(!w.has_non_finite());
    }

    #[test]
    fn objective_decreases_nonmonotone_window() {
        let (data, _) = two_lines(10, 0.02, 2);
        let res = spg_affinity(&data, &SpgConfig::default()).unwrap();
        let t = &res.objective_trace;
        assert!(t.len() >= 2);
        // The nonmonotone rule still forces overall decrease: the last
        // value must be (weakly) below the first.
        assert!(
            t.last().unwrap() <= t.first().unwrap(),
            "objective grew: {t:?}"
        );
    }

    #[test]
    fn within_subspace_affinity_dominates() {
        let (data, labels) = two_lines(12, 0.01, 3);
        let res = spg_affinity(
            &data,
            &SpgConfig {
                gamma: 50.0,
                ..SpgConfig::default()
            },
        )
        .unwrap();
        let mut within = 0.0;
        let mut across = 0.0;
        for (i, j, v) in res.w.iter() {
            if labels[i] == labels[j] {
                within += v;
            } else {
                across += v;
            }
        }
        assert!(
            within > 3.0 * across,
            "within {within} not dominating across {across}"
        );
    }

    /// Fig. 1's claim: subspace learning finds *distant* within-manifold
    /// neighbours. One far-out point on line A (index `n_per`) must get
    /// its largest affinities from line A.
    fn distant_point_scene(n_per: usize) -> Mat {
        let dir_a = [1.0, 2.0, 0.0, -1.0];
        let dir_b = [0.0, 1.0, -3.0, 1.0];
        let mut rows = Vec::new();
        for i in 0..n_per {
            let c = 0.5 + 0.1 * i as f64;
            rows.push(dir_a.iter().map(|d| c * d).collect::<Vec<_>>());
        }
        rows.push(dir_a.iter().map(|d| 50.0 * d).collect::<Vec<_>>());
        for i in 0..n_per {
            let c = 0.5 + 0.1 * i as f64;
            rows.push(dir_b.iter().map(|d| c * d).collect::<Vec<_>>());
        }
        Mat::from_rows(&rows).unwrap()
    }

    fn distant_point_masses(n_per: usize) -> (SpgResult, f64, f64) {
        let data = distant_point_scene(n_per);
        let res = spg_affinity(
            &data,
            &SpgConfig {
                gamma: 100.0,
                max_iter: 300,
                ..SpgConfig::default()
            },
        )
        .unwrap();
        let far = n_per;
        let mass = |range: std::ops::Range<usize>| -> f64 {
            range.map(|j| res.w.get(far, j) + res.w.get(j, far)).sum()
        };
        let (a, b) = (mass(0..n_per), mass(n_per + 1..2 * n_per + 1));
        (res, a, b)
    }

    #[test]
    fn distant_same_subspace_points_connected() {
        let (_, a_mass, b_mass) = distant_point_masses(8);
        assert!(
            a_mass > b_mass,
            "distant point not linked to its subspace: A={a_mass} B={b_mass}"
        );
    }

    #[test]
    fn distant_point_keeps_its_line_under_restricted_support() {
        // 81 objects: the support is restricted (K′ = 64 < 80), and the
        // far point's candidates must be its own line, not the nearby B
        // points.
        let n_per = 40;
        let (res, a_mass, b_mass) = distant_point_masses(n_per);
        assert!(
            a_mass > b_mass,
            "distant point not linked to its subspace: A={a_mass} B={b_mass}"
        );
        let (cols, vals) = res.w.row(n_per);
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by(|&x, &y| vals[y].total_cmp(&vals[x]));
        let strongest: Vec<usize> = order.iter().take(5).map(|&p| cols[p]).collect();
        assert!(!strongest.is_empty(), "far point got no affinity");
        assert!(
            strongest.iter().all(|&j| j < n_per),
            "far point's strongest links leave line A: {strongest:?}"
        );
        assert!(res.w.row(0).0.len() <= CANDIDATES);
    }

    #[test]
    fn candidates_rank_by_inner_product_with_index_ties() {
        let k = Mat::from_vec(
            4,
            4,
            vec![
                9.0, 1.0, 1.0, 5.0, //
                1.0, 9.0, 2.0, 2.0, //
                1.0, 2.0, 9.0, 0.0, //
                5.0, 2.0, 0.0, 9.0,
            ],
        )
        .unwrap();
        let s = Support::top_inner_products(&k, 2);
        assert_eq!(s.width, 3);
        assert_eq!(s.row(0), [0, 1, 3]); // 5 beats the tie 1 = 1 won by index 1
        assert_eq!(s.row(1), [1, 2, 3]);
        assert_eq!(s.row(2), [0, 1, 2]);
        assert_eq!(s.diag, [0, 0, 2, 2]);
        let full = Support::top_inner_products(&k, CANDIDATES);
        assert_eq!(full.row(3), [0, 1, 2, 3]);
    }

    /// The product's previous body: gather each term's Gram entries into
    /// scratch, then add the scratch into the output row in memory.
    fn support_product_oracle(k: &Mat, support: &Support, x: &Mat) -> Mat {
        let (n, width) = (x.rows(), support.width);
        let mut out = Mat::zeros(n, width);
        let mut gathered = vec![0.0; width];
        for i in 0..n {
            let cols = support.row(i);
            let orow = out.row_mut(i);
            for (&xv, &l) in x.row(i).iter().zip(cols) {
                if xv == 0.0 {
                    continue;
                }
                let krow = k.row(l);
                for (g, &j) in gathered.iter_mut().zip(cols) {
                    *g = krow[j];
                }
                for (o, &g) in orow.iter_mut().zip(&gathered) {
                    *o += xv * g;
                }
            }
        }
        out
    }

    /// `n x d` features in `[-1, 1)` with about a quarter exact zeros and
    /// object 1's row all zero, so the Gram has a zero row and column.
    fn features(n: usize, d: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = Mat::zeros(n, d);
        for v in f.as_mut_slice() {
            if rng.gen_range(0.0..1.0) < 0.75 {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        f.row_mut(1).fill(0.0);
        f
    }

    /// An iterate on the support: rows `i % 3 == 0` about 62 % nonzero
    /// (the density a cold fit's search directions run at), with exact
    /// zeros, `-0.0`s and signed values; rows `i % 3 == 1` fully nonzero;
    /// rows `i % 3 == 2` all zero.
    fn iterate(n: usize, width: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Mat::zeros(n, width);
        for i in (0..n).filter(|i| i % 3 != 2) {
            for v in x.row_mut(i) {
                *v = match rng.gen_range(0..16) {
                    0..=4 if i % 3 == 0 => 0.0,
                    5 if i % 3 == 0 => -0.0,
                    _ => {
                        rng.gen_range(0.25..1.0) * if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 }
                    }
                };
            }
        }
        x
    }

    #[test]
    fn support_product_matches_the_scalar_oracle_bit_for_bit() {
        let threads = mtrl_linalg::par::num_threads();
        for (case, &n) in [3usize, 40, 65, 66, 150, 330].iter().enumerate() {
            let k = row_gram(&features(n, 23, 40 + case as u64));
            let support = Support::top_inner_products(&k, CANDIDATES);
            assert_eq!(support.width, n.min(CANDIDATES + 1));
            let x = iterate(n, support.width, 50 + case as u64);
            let expect = support_product_oracle(&k, &support, &x);
            let mut zero_tested = Mat::zeros(n, support.width);
            support_product_zero_tested(&k, &support, &x, &mut zero_tested);
            for t in [1, 4] {
                mtrl_linalg::par::set_num_threads(t);
                let mut out = Mat::from_vec(n, support.width, vec![f64::NAN; n * support.width])
                    .expect("shape");
                support_product(&k, &support, &x, &mut out);
                for (e, ((a, b), c)) in out
                    .as_slice()
                    .iter()
                    .zip(expect.as_slice())
                    .zip(zero_tested.as_slice())
                    .enumerate()
                {
                    assert!(
                        a.to_bits() == b.to_bits() && a.to_bits() == c.to_bits(),
                        "n = {n}, {t} threads, entry ({}, {}): {a} vs {b} vs {c}",
                        e / support.width,
                        e % support.width
                    );
                }
            }
        }
        mtrl_linalg::par::set_num_threads(threads);
    }

    #[test]
    fn full_width_kernel_paths_agree_bit_for_bit() {
        // On an AVX-512 CPU `accumulate_full` gathers 8-wide; elsewhere
        // it is the portable loop, and this checks nothing new.
        use crate::support::{accumulate_full, accumulate_full_portable, LANES};
        let n = 150;
        let k = row_gram(&features(n, 23, 61));
        let support = Support::top_inner_products(&k, CANDIDATES);
        let x = iterate(n, support.width, 62);
        for i in 0..n {
            let cols: &[usize; LANES] = support.row(i).try_into().expect("full-width row");
            let terms: Vec<(f64, &[f64])> = x
                .row(i)
                .iter()
                .zip(cols)
                .filter(|&(&v, _)| v != 0.0)
                .map(|(&v, &l)| (v, k.row(l)))
                .collect();
            let (mut wide, mut portable) = ([0.5; LANES], [0.5; LANES]);
            // SAFETY: support columns are objects, `< n = k.cols()`, the
            // length of every term's Gram row.
            unsafe {
                accumulate_full(&terms, cols, &mut wide);
                accumulate_full_portable(&terms, cols, &mut portable);
            }
            let bits = |a: &[f64; LANES]| a.map(f64::to_bits);
            assert_eq!(bits(&wide), bits(&portable), "row {i}");
        }
    }

    /// Runs the fused solver and the unfused loop on `data`'s Gram and
    /// support and asserts they agree bit for bit; returns the fused run.
    fn fused_equals_unfused(data: &Mat, cfg: &SpgConfig) -> SpgResult {
        let k = row_gram(data);
        let support = Support::top_inner_products(&k, CANDIDATES);
        let fused = solve(&k, &support, cfg);
        let unfused = solve_unfused(&k, &support, cfg);
        assert_eq!(
            (fused.iterations, fused.converged),
            (unfused.iterations, unfused.converged)
        );
        let bits = |r: &SpgResult| -> Vec<(usize, usize, u64)> {
            r.w.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
        };
        assert_eq!(bits(&fused), bits(&unfused), "W differs");
        let trace_bits =
            |r: &SpgResult| -> Vec<u64> { r.objective_trace.iter().map(|o| o.to_bits()).collect() };
        assert_eq!(
            trace_bits(&fused),
            trace_bits(&unfused),
            "objective trace differs"
        );
        fused
    }

    #[test]
    fn fused_loop_matches_the_unfused_loop_bit_for_bit() {
        fused_equals_unfused(&two_lines(8, 0.01, 1).0, &SpgConfig::default());
        fused_equals_unfused(
            &two_lines(12, 0.01, 3).0,
            &SpgConfig {
                gamma: 50.0,
                ..SpgConfig::default()
            },
        );
        // Restricted (n = 80 > CANDIDATES + 1) with an all-zero object.
        let (mut data, _) = two_lines(40, 0.05, 9);
        data.row_mut(5).fill(0.0);
        fused_equals_unfused(&data, &SpgConfig::default());
    }

    #[test]
    fn fused_loop_matches_the_unfused_loop_at_its_early_exits() {
        // A loose tolerance stops on ‖D‖ ≤ tol·n; a long run on clean
        // lines stops on a dead direction or an exhausted line search.
        let (data, _) = two_lines(10, 0.0, 6);
        for cfg in [
            SpgConfig {
                tol: 1e-2,
                ..SpgConfig::default()
            },
            SpgConfig {
                max_iter: 3000,
                ..SpgConfig::default()
            },
        ] {
            let res = fused_equals_unfused(&data, &cfg);
            assert!(
                res.converged && res.iterations < cfg.max_iter,
                "{cfg:?}: {} iterations",
                res.iterations
            );
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        let one = Mat::zeros(1, 3);
        assert!(spg_affinity(&one, &SpgConfig::default()).is_err());
        let data = Mat::zeros(4, 3);
        let bad_gamma = SpgConfig {
            gamma: 0.0,
            ..SpgConfig::default()
        };
        assert!(spg_affinity(&data, &bad_gamma).is_err());
    }

    #[test]
    fn out_of_range_settings_are_typed_errors() {
        let (data, _) = two_lines(6, 0.05, 8);
        let bad = [
            SpgConfig {
                gamma: f64::NAN,
                ..SpgConfig::default()
            },
            SpgConfig {
                gamma: f64::INFINITY,
                ..SpgConfig::default()
            },
            SpgConfig {
                gamma: -1.0,
                ..SpgConfig::default()
            },
            SpgConfig {
                tol: f64::NAN,
                ..SpgConfig::default()
            },
            SpgConfig {
                tol: f64::INFINITY,
                ..SpgConfig::default()
            },
            SpgConfig {
                tol: -1e-5,
                ..SpgConfig::default()
            },
            SpgConfig {
                armijo: 0.0,
                ..SpgConfig::default()
            },
            SpgConfig {
                armijo: 1.0,
                ..SpgConfig::default()
            },
            SpgConfig {
                armijo: f64::NAN,
                ..SpgConfig::default()
            },
        ];
        for cfg in &bad {
            assert!(
                matches!(
                    spg_affinity(&data, cfg),
                    Err(LinalgError::InvalidArgument(_))
                ),
                "{cfg:?} accepted"
            );
        }
        let edge = SpgConfig {
            tol: 0.0,
            ..SpgConfig::default()
        };
        assert!(spg_affinity(&data, &edge).is_ok());
    }

    #[test]
    fn non_finite_features_are_typed_errors() {
        let (clean, _) = two_lines(6, 0.05, 8);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = clean.clone();
            data.row_mut(3).fill(bad);
            assert!(
                matches!(
                    spg_affinity(&data, &SpgConfig::default()),
                    Err(LinalgError::InvalidArgument(_))
                ),
                "{bad} row accepted"
            );
        }
        let mut huge = clean.clone();
        huge.row_mut(2).fill(1e200);
        assert!(matches!(
            spg_affinity(&huge, &SpgConfig::default()),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn all_zero_row_gives_finite_affinity() {
        let (mut data, _) = two_lines(40, 0.05, 9); // restricted: n = 80
        data.row_mut(5).fill(0.0);
        let res = spg_affinity(&data, &SpgConfig::default()).unwrap();
        assert!(res.w.iter().all(|(_, _, v)| v.is_finite() && v > 0.0));
        assert!(res.objective_trace.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = two_lines(6, 0.05, 4);
        let a = spg_affinity(&data, &SpgConfig::default()).unwrap();
        let b = spg_affinity(&data, &SpgConfig::default()).unwrap();
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        // 320 rows put the support product over the parallel threshold.
        let (data, _) = two_lines(160, 0.05, 10);
        let cfg = SpgConfig {
            max_iter: 5,
            ..SpgConfig::default()
        };
        let threads = mtrl_linalg::par::num_threads();
        mtrl_linalg::par::set_num_threads(1);
        let serial = spg_affinity(&data, &cfg).unwrap();
        mtrl_linalg::par::set_num_threads(3);
        let parallel = spg_affinity(&data, &cfg).unwrap();
        mtrl_linalg::par::set_num_threads(threads);
        assert_eq!(serial.w, parallel.w);
        assert_eq!(serial.objective_trace, parallel.objective_trace);
    }

    #[test]
    fn matches_the_dense_solver_when_every_object_is_a_candidate() {
        // n ≤ CANDIDATES + 1: the feasible set is the unrestricted one.
        let mut inputs = vec![
            two_lines(8, 0.01, 1).0,
            two_lines(12, 0.02, 11).0,
            rand_uniform(50, 9, 0.0, 1.0, 12),
            rand_uniform(CANDIDATES + 1, 20, 0.0, 1.0, 13),
        ];
        let mut sparse = rand_uniform(40, 30, 0.0, 1.0, 14);
        for v in sparse.as_mut_slice() {
            if *v < 0.6 {
                *v = 0.0;
            }
        }
        inputs.push(sparse);
        for (case, data) in inputs.iter().enumerate() {
            let cfg = SpgConfig {
                max_iter: 60,
                seed: 3 + case as u64,
                ..SpgConfig::default()
            };
            let restricted = spg_affinity(data, &cfg).unwrap();
            let dense = spg_dense(data, &cfg).unwrap();
            assert_eq!(restricted.iterations, dense.iterations, "case {case}");
            for (it, (a, b)) in restricted
                .objective_trace
                .iter()
                .zip(&dense.objective_trace)
                .enumerate()
            {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(f64::MIN_POSITIVE),
                    "case {case} iteration {it}: {a} vs {b}"
                );
            }
            let w = restricted.w.to_dense();
            assert_eq!(
                top_k_supports(&w, TOP_K),
                top_k_supports(&dense.w, TOP_K),
                "case {case}"
            );
            assert!(w.approx_eq(&dense.w, 1e-9 * dense.w.max()), "case {case}");
        }
    }

    #[test]
    fn larger_gamma_means_better_reconstruction() {
        let (data, _) = two_lines(10, 0.02, 5);
        let lo = spg_affinity(
            &data,
            &SpgConfig {
                gamma: 1.0,
                ..SpgConfig::default()
            },
        )
        .unwrap();
        let hi = spg_affinity(
            &data,
            &SpgConfig {
                gamma: 500.0,
                ..SpgConfig::default()
            },
        )
        .unwrap();
        let recon = |w: &Csr| {
            let xw = matmul(&w.to_dense(), &data).unwrap();
            let diff = xw.as_slice().iter().zip(data.as_slice());
            diff.map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        };
        assert!(
            recon(&hi.w) < recon(&lo.w),
            "gamma=500 should reconstruct better than gamma=1"
        );
    }
}
