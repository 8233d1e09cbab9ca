//! Test oracle: the SPG loop and support product as they were before the
//! loop's passes were fused and the product's terms compacted.
//!
//! [`crate::spg`]'s solver must reproduce this loop bit for bit: the same
//! `W`, objective trace, iteration count and exit. Compiled into tests
//! only: the crate's unit tests and `tests/integration_subspace.rs`
//! include this file.

use crate::spg::{SpgConfig, SpgResult};
use crate::support::{Support, LANES};
use mtrl_linalg::par::{par_row_chunks, threads_for};
use mtrl_linalg::Mat;
use mtrl_sparse::CsrBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The solver loop before its passes were fused: one pass over the
/// `n x width` arrays per quantity, with the product below.
pub(crate) fn solve_unfused(k: &Mat, support: &Support, cfg: &SpgConfig) -> SpgResult {
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

    let mut w = initial_iterate(support, n, cfg.seed);
    // M = W K on the support, maintained incrementally across iterations.
    let mut m = Mat::zeros(n, width);
    support_product_zero_tested(k, support, &w, &mut m);
    let mut col_sums = vec![0.0; n];
    let mut obj = objective(&w, &m, &k_sup, support, tr_k, cfg.gamma, &mut col_sums);
    let mut grad = Mat::zeros(n, width);
    gradient(&m, &k_sup, support, &col_sums, cfg.gamma, &mut grad);
    let [mut d, mut dk, mut w_try, mut m_try, mut grad_try] =
        std::array::from_fn(|_| Mat::zeros(n, width));

    let mut sigma = 1.0f64; // paper: σ ← 1
    let mut history = VecDeque::with_capacity(cfg.history + 1);
    history.push_back(obj);
    let mut trace = Vec::with_capacity(cfg.max_iter);
    let scale_tol = cfg.tol * (n as f64);

    let mut converged = false;
    let mut iterations = 0;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        let accepted = 'step: {
            // Step 2: search direction D = P(W − σ∇) − W.
            for ((dv, &wv), &gv) in d
                .as_mut_slice()
                .iter_mut()
                .zip(w.as_slice())
                .zip(grad.as_slice())
            {
                let trial = wv + (-sigma) * gv;
                *dv = if trial < 0.0 { 0.0 } else { trial } - wv;
            }
            for (i, &a) in support.diag.iter().enumerate() {
                d[(i, a)] = 0.0;
            }
            if mtrl_linalg::vecops::norm2(d.as_slice()) <= scale_tol {
                break 'step false;
            }
            // ⟨∇, D⟩ for the Armijo condition (must be negative by
            // convexity of the feasible set; if not, the direction is
            // numerically dead).
            let gd = dot(&grad, &d);
            if gd >= 0.0 {
                break 'step false;
            }

            // D·K once, so every line-search trial is O(n·width).
            support_product_zero_tested(k, support, &d, &mut dk);
            let f_max = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);

            // Step 3: nonmonotone backtracking on ℓ ∈ (0, 1].
            let mut ell = 1.0f64;
            let mut accepted = false;
            for _ in 0..30 {
                axpy_into(&mut w_try, &w, ell, &d);
                axpy_into(&mut m_try, &m, ell, &dk);
                let obj_try = objective(
                    &w_try,
                    &m_try,
                    &k_sup,
                    support,
                    tr_k,
                    cfg.gamma,
                    &mut col_sums,
                );
                if obj_try <= f_max + cfg.armijo * ell * gd {
                    // Steps 4-7: accept, update BB quantities.
                    gradient(&m_try, &k_sup, support, &col_sums, cfg.gamma, &mut grad_try);
                    let (sty, yty) = bb_products(&w, &w_try, &grad, &grad_try);
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
        if !accepted {
            // A dead direction or an exhausted line search: the iterate
            // is numerically optimal.
            converged = true;
            break;
        }
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

/// `J₂ = γ(tr K − 2 Σ W∘K + Σ (WK)∘W) + Σ_k colsum_k(W)²`, with
/// `M = WK` and `k_sup = K[i, S_i]` on the support; leaves the column
/// sums of `W` in `col_sums`.
///
/// The fidelity expansion uses `‖X − WX‖² = tr((I−W)K(I−W)ᵀ)` with
/// `K = XXᵀ`; for nonnegative `W`, `‖WWᵀ‖₁ = Σ_k (Σ_i W_ik)²`.
fn objective(
    w: &Mat,
    m: &Mat,
    k_sup: &Mat,
    support: &Support,
    tr_k: f64,
    gamma: f64,
    col_sums: &mut [f64],
) -> f64 {
    let fidelity = tr_k - 2.0 * dot(w, k_sup) + dot(m, w);
    col_sums.fill(0.0);
    for i in 0..w.rows() {
        for (&v, &j) in w.row(i).iter().zip(support.row(i)) {
            col_sums[j] += v;
        }
    }
    let sparsity: f64 = col_sums.iter().map(|c| c * c).sum();
    gamma * fidelity + sparsity
}

/// `∇J₂ = 2γ(M − K) + 2·1·colsum(W)ᵀ` on the support, into `g`.
fn gradient(m: &Mat, k_sup: &Mat, support: &Support, col_sums: &[f64], gamma: f64, g: &mut Mat) {
    for i in 0..m.rows() {
        for (((gv, &mv), &kv), &j) in g
            .row_mut(i)
            .iter_mut()
            .zip(m.row(i))
            .zip(k_sup.row(i))
            .zip(support.row(i))
        {
            *gv = 2.0 * gamma * (mv - kv) + 2.0 * col_sums[j];
        }
    }
}

/// `W₀`: the uniform `[0, 1/n)` draws of a dense `n x n` start read at
/// the support (the stream is drawn in full, so the start does not
/// depend on the support), with the diagonal projected to zero.
fn initial_iterate(support: &Support, n: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let hi = 1.0 / n as f64;
    let mut w = Mat::zeros(n, support.width);
    for i in 0..n {
        let cols = support.row(i);
        let row = w.row_mut(i);
        let mut next = 0;
        for j in 0..n {
            let v: f64 = rng.gen_range(0.0..hi);
            if cols.get(next) == Some(&j) {
                row[next] = if j == i { 0.0 } else { v };
                next += 1;
            }
        }
    }
    w
}

/// `out = a + ℓ·b`, elementwise.
fn axpy_into(out: &mut Mat, a: &Mat, ell: f64, b: &Mat) {
    for ((o, &av), &bv) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = av + ell * bv;
    }
}

/// `Σ_ij A_ij B_ij` in row-major order.
fn dot(a: &Mat, b: &Mat) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .sum()
}

/// Returns `(sᵀy, yᵀy)` for the BB step, with `s = W⁺ − W`,
/// `y = ∇(W⁺) − ∇(W)`.
fn bb_products(w_old: &Mat, w_new: &Mat, g_old: &Mat, g_new: &Mat) -> (f64, f64) {
    let mut sty = 0.0;
    let mut yty = 0.0;
    for (((wo, wn), go), gn) in w_old
        .as_slice()
        .iter()
        .zip(w_new.as_slice())
        .zip(g_old.as_slice())
        .zip(g_new.as_slice())
    {
        let s = wn - wo;
        let y = gn - go;
        sty += s * y;
        yty += y * y;
    }
    (sty, yty)
}

/// `out = X·K` on the support: `out_i[a] = Σ_b x_i[b] · K[S_i[b], S_i[a]]`,
/// skipping zero coefficients — row `i` of the dense product read at
/// `S_i`, for `X` supported on `S`. `O(n·width²)`.
///
/// The product's previous body: one pass per row at the runtime width,
/// testing every coefficient against zero inside the term loop.
pub(crate) fn support_product_zero_tested(k: &Mat, support: &Support, x: &Mat, out: &mut Mat) {
    let (n, width) = (x.rows(), support.width);
    let stride = k.cols();
    let rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
        for (orow, i) in chunk.chunks_exact_mut(width).zip(r0..r1) {
            let cols = support.row(i);
            // Support rows ascend, so this bounds every column of the row.
            assert!(cols[width - 1] < stride, "support column outside the Gram");
            let mut acc = [0.0; LANES];
            for (&xv, &l) in x.row(i).iter().zip(cols) {
                if xv == 0.0 {
                    continue;
                }
                let krow = k.row(l);
                for (o, &j) in acc[..width].iter_mut().zip(cols) {
                    // SAFETY: `krow` has `stride` entries and every `j` is
                    // a column of this ascending support row, so at most
                    // `cols[width − 1] < stride` (checked above).
                    *o += xv * unsafe { *krow.get_unchecked(j) };
                }
            }
            orow.copy_from_slice(&acc[..width]);
        }
    };
    if threads_for(n * width * width) == 1 {
        rows(0, n, out.as_mut_slice());
    } else {
        par_row_chunks(out.as_mut_slice(), n, width, rows);
    }
}
