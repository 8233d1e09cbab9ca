//! Test oracle: Algorithm 1 on the full dense `n x n` iterate.
//!
//! This is the unrestricted SPG solver the support-restricted
//! [`crate::spg`] replaces, kept only so the restriction can be checked
//! rather than trusted: for `n ≤ CANDIDATES + 1` both must trace the same
//! objective, and on larger inputs the restricted solver must recover
//! the oracle's strongest links. It shares the Gram kernel with the
//! production solver and is compiled into tests only (the crate's unit
//! tests and the workspace integration tests include this file).
//!
//! Cost per iteration is an `O(nnz(W)·n)` product `D·K` plus `n x n`
//! clones inside the line search.

use super::SpgConfig;
use mtrl_linalg::ops::{matmul, row_gram};
use mtrl_linalg::random::rand_uniform;
use mtrl_linalg::vecops::{axpy, norm2};
use mtrl_linalg::{LinalgError, Mat};

/// Output of the dense solver.
pub(crate) struct DenseSpg {
    /// The learned affinity (`n x n`, nonnegative, zero diagonal).
    pub w: Mat,
    /// Objective value `J₂` after every iteration.
    pub objective_trace: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
}

/// Minimise Eq. (9) over `{W ≥ 0, diag(W) = 0}` with dense iterates.
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] for fewer than 2 objects.
pub(crate) fn spg_dense(data: &Mat, cfg: &SpgConfig) -> Result<DenseSpg, LinalgError> {
    let n = data.rows();
    if n < 2 {
        return Err(LinalgError::InvalidArgument(
            "spg_dense: need at least 2 objects".into(),
        ));
    }
    let k = row_gram(data);
    let tr_k = k.trace();

    let mut w = rand_uniform(n, n, 0.0, 1.0 / n as f64, cfg.seed);
    project_inplace(&mut w);
    let mut m = matmul(&w, &k)?;
    let mut obj = objective(&w, &m, &k, tr_k, cfg.gamma);
    let mut grad = gradient(&w, &m, &k, cfg.gamma);

    let mut sigma = 1.0f64;
    let mut history = std::collections::VecDeque::with_capacity(cfg.history);
    history.push_back(obj);
    let mut trace = Vec::with_capacity(cfg.max_iter);
    let scale_tol = cfg.tol * (n as f64);

    let mut iterations = 0;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        let mut trial = w.clone();
        axpy(-sigma, grad.as_slice(), trial.as_mut_slice());
        project_inplace(&mut trial);
        let d = trial.sub(&w)?;

        if norm2(d.as_slice()) <= scale_tol {
            trace.push(obj);
            break;
        }
        let gd: f64 = grad
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(g, dd)| g * dd)
            .sum();
        if gd >= 0.0 {
            trace.push(obj);
            break;
        }

        let dk = matmul(&d, &k)?;
        let f_max = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut ell = 1.0f64;
        let mut accepted = false;
        for _ in 0..30 {
            let mut w_try = w.clone();
            axpy(ell, d.as_slice(), w_try.as_mut_slice());
            let mut m_try = m.clone();
            axpy(ell, dk.as_slice(), m_try.as_mut_slice());
            let obj_try = objective(&w_try, &m_try, &k, tr_k, cfg.gamma);
            if obj_try <= f_max + cfg.armijo * ell * gd {
                let grad_new = gradient(&w_try, &m_try, &k, cfg.gamma);
                let (sty, yty) = bb_products(&w, &w_try, &grad, &grad_new);
                sigma = if sty > 0.0 && yty > 0.0 {
                    (sty / yty).clamp(1e-10, 1e10)
                } else {
                    1.0
                };
                w = w_try;
                m = m_try;
                grad = grad_new;
                obj = obj_try;
                accepted = true;
                break;
            }
            ell *= 0.5;
        }
        trace.push(obj);
        history.push_back(obj);
        if history.len() > cfg.history {
            history.pop_front();
        }
        if !accepted {
            break;
        }
    }

    Ok(DenseSpg {
        w,
        objective_trace: trace,
        iterations,
    })
}

/// Projection operator P of Eq. (11): clamp negatives, zero the diagonal.
fn project_inplace(w: &mut Mat) {
    let n = w.rows();
    for v in w.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    for i in 0..n {
        w[(i, i)] = 0.0;
    }
}

/// `J₂ = γ(tr K − 2 Σ W∘K + Σ (WK)∘W) + Σ_k colsum_k(W)²`, `M = WK`.
fn objective(w: &Mat, m: &Mat, k: &Mat, tr_k: f64, gamma: f64) -> f64 {
    let wk: f64 = w
        .as_slice()
        .iter()
        .zip(k.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let wmw: f64 = m
        .as_slice()
        .iter()
        .zip(w.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let fidelity = tr_k - 2.0 * wk + wmw;
    let sparsity: f64 = w.col_sums().iter().map(|c| c * c).sum();
    gamma * fidelity + sparsity
}

/// `∇J₂ = 2γ(M − K) + 2·1·colsum(W)ᵀ` with `M = WK`.
fn gradient(w: &Mat, m: &Mat, k: &Mat, gamma: f64) -> Mat {
    let n = w.rows();
    let col_sums = w.col_sums();
    let mut g = Mat::zeros(n, n);
    for i in 0..n {
        let grow = g.row_mut(i);
        let mrow = m.row(i);
        let krow = k.row(i);
        for j in 0..n {
            grow[j] = 2.0 * gamma * (mrow[j] - krow[j]) + 2.0 * col_sums[j];
        }
    }
    g
}

/// `(sᵀy, yᵀy)` with `s = W⁺ − W`, `y = ∇(W⁺) − ∇(W)`.
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

#[test]
fn projection_operator_eq11() {
    let mut w = Mat::from_vec(2, 2, vec![3.0, -1.0, 0.5, 2.0]).unwrap();
    project_inplace(&mut w);
    assert_eq!(w[(0, 0)], 0.0);
    assert_eq!(w[(1, 1)], 0.0);
    assert_eq!(w[(0, 1)], 0.0); // clamped negative
    assert_eq!(w[(1, 0)], 0.5);
}
