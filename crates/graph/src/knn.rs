//! pNN graph construction (paper Eq. 3).
//!
//! For each object `x_i` (a row of the feature matrix) the `p` nearest
//! neighbours in Euclidean distance are found; edge weights follow the
//! chosen [`WeightScheme`]. The graph is symmetrised with the "or" rule of
//! Eq. (3): `(W)_ij = w_ij` if `x_j ∈ N(x_i)` **or** `x_i ∈ N(x_j)`.
//!
//! ## The hot path
//!
//! Every method in the reproduction funnels through this construction
//! (Sec. III-F bounds it at `O(n_k² p K)`), so it is both **blocked** and
//! **parallel**:
//!
//! * distances come from the Gram identity
//!   `‖x_i − x_j‖² = g_i + g_j − 2·x_iᵀx_j`, with the `−2 X_tile Xᵀ`
//!   term computed one row tile at a time through a vectorisable
//!   axpy kernel over the pre-transposed data — memory stays
//!   `O(tile · n)` per worker instead of `O(n²)`;
//! * row tiles are distributed over [`mtrl_linalg::par`] worker threads.
//!
//! Each row's distance vector is accumulated in the same `k` order no
//! matter which tile or thread computes it, and ties are broken by
//! neighbour index under `f64::total_cmp`, so neighbour sets are
//! **bit-identical** for every thread count (see the cross-thread
//! proptests below, which force thread counts on the private bodies,
//! and in `tests/proptest_invariants.rs`, which go through the pool).
//!
//! ## Entry points
//!
//! [`knn_indices`] and [`pnn_graph`] are the crate's only neighbour
//! searches. Both take a [`GraphBackend`] and a [`Precision`] and run on
//! the [`mtrl_linalg::par`] pool, with one worker below the
//! [`mtrl_linalg::par::threads_for`] work threshold.
//! [`GraphBackend::Exact`] runs the blocked kernel of this module;
//! [`GraphBackend::RpForest`] draws candidates from the index in
//! [`crate::ann`] and ranks them with this module's pair function and
//! selection order.
//!
//! ## Precision
//!
//! With [`Precision::F32`] the exact search stores the centred
//! features as [`MatF32`] and runs the *same* tile kernel on them: the
//! kernel is generic over the stored element and widens each one to
//! `f64` at its point of use, so every distance equals the `f64`
//! kernel's on the quantised operands bit for bit. This is the one place
//! f32 storage pays (the tile is bandwidth-bound once `Xᵀ` spills L2).
//! Centring stays in `f64` and quantisation happens after it; edge
//! weighting ([`graph_from_neighbours`]) always runs on the raw `f64`
//! rows, so precision only moves neighbour *sets* where quantisation
//! reorders a near-tie.

use crate::ann::{self, GraphBackend};
use mtrl_linalg::par::{par_chunks_map, threads_for};
use mtrl_linalg::vecops::{cosine, dots, norm2, sq_dist};
use mtrl_linalg::{Mat, MatF32, Precision};
use mtrl_sparse::Csr;

/// Edge weighting schemes of Eq. (3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightScheme {
    /// `w_ij = 1` whenever an edge exists.
    Binary,
    /// Heat kernel `w_ij = exp(-‖x_i − x_j‖² / σ)`. A non-positive σ
    /// activates the self-tuning heuristic (mean squared neighbour
    /// distance over the whole graph).
    HeatKernel {
        /// Local bandwidth σ (paper's user-defined parameter).
        sigma: f64,
    },
    /// Cosine similarity `w_ij = xᵢᵀxⱼ / (‖xᵢ‖‖xⱼ‖)`, clamped at zero so
    /// weights stay nonnegative (tf-idf features are nonnegative anyway).
    Cosine,
}

/// Rows per distance tile: bounds the per-worker scratch at
/// `TILE * n` doubles (512 KB at `n = 2000`) while keeping the axpy
/// kernel long enough to vectorise.
const TILE: usize = 32;

/// Threads for an all-pairs pass over `data`: `n² d` multiply-adds.
fn all_pairs_threads(data: &Mat) -> usize {
    let n = data.rows();
    threads_for(n * n * data.cols())
}

/// Indices of the `p` nearest neighbours (Euclidean) of every row of
/// `data`, excluding the object itself, found by `backend` at
/// `precision`. Rows with fewer than `p` other objects return
/// everything available; lists are index-sorted.
///
/// Ties (including the exact-zero distances of duplicate points) are
/// broken by ascending neighbour index; NaN distances order *after*
/// every real distance (`f64::total_cmp`), so a row containing NaN
/// features is never selected while finite alternatives exist and the
/// result is always well defined — no panic.
///
/// In [`Precision::F32`] mode the centred features are quantised
/// through `f32` and every accumulation is `f64`, so the lists equal
/// the `f64` search on the quantised centred features
/// ([`Precision::quantize_in_place`]). Output is bit-identical for every
/// pool size within each mode.
pub fn knn_indices(
    data: &Mat,
    p: usize,
    backend: &GraphBackend,
    precision: Precision,
) -> Vec<Vec<usize>> {
    knn_search(data, p, backend, precision, all_pairs_threads(data))
}

/// [`knn_indices`] on an explicit worker count, timed as
/// `graph.knn_search` (plus `graph.index_build` when an index is built).
fn knn_search(
    data: &Mat,
    p: usize,
    backend: &GraphBackend,
    precision: Precision,
    threads: usize,
) -> Vec<Vec<usize>> {
    match backend {
        GraphBackend::Exact => {
            let _span = mtrl_obs::span!("graph.knn_search");
            knn_exact(data, p, precision, threads)
        }
        GraphBackend::RpForest(params) => ann::knn_rp_forest(data, p, params, precision, threads),
    }
}

/// The exact search of both precisions on `threads` workers.
fn knn_exact(data: &Mat, p: usize, precision: Precision, threads: usize) -> Vec<Vec<usize>> {
    // Centre the columns before the Gram expansion. Euclidean distances
    // are translation-invariant, but `gi + gj − 2·xiᵀxj` cancels
    // catastrophically when ‖x‖² dwarfs the pairwise separations (data
    // clustered far from the origin — the classic euclidean_distances
    // pitfall); centring puts the origin inside the cloud where the
    // expansion is stable. Means are computed once, globally, so every
    // chunking sees the same centred values. Quantising *after*
    // centring spends the f32 mantissa on the pairwise separations, not
    // on a common offset.
    let centered = center_columns(data);
    match precision {
        Precision::F64 => knn_stored(&centered, p, threads),
        Precision::F32 => knn_stored(&MatF32::from_mat(&centered), p, threads),
    }
}

/// Row storage the Gram tile reads: `f64` ([`Mat`]) or `f32`
/// ([`MatF32`]) elements, each widened to `f64` at its point of use.
/// Widening is exact and row grouping never changes the per-output
/// rounding sequence, so both instantiations compute the same bits on
/// the same (quantised) values; only the blocking constants differ.
trait GramRows: Sync {
    type Elem: Copy + Into<f64>;
    /// Query rows that share each streamed strip of `Xᵀ`.
    const GROUP: usize;
    /// Column-strip width of the micro-kernel.
    const JT: usize;
    fn rows(&self) -> usize;
    fn cols(&self) -> usize;
    fn row(&self, i: usize) -> &[Self::Elem];
    fn transpose(&self) -> Self;
}

impl GramRows for Mat {
    type Elem = f64;
    const GROUP: usize = 4;
    /// Four 4 KB output strips plus one 4 KB strip of `Xᵀ` stay
    /// L1-resident across the `k` loop.
    const JT: usize = 512;
    fn rows(&self) -> usize {
        Mat::rows(self)
    }
    fn cols(&self) -> usize {
        Mat::cols(self)
    }
    fn row(&self, i: usize) -> &[f64] {
        Mat::row(self, i)
    }
    fn transpose(&self) -> Self {
        Mat::transpose(self)
    }
}

impl GramRows for MatF32 {
    type Elem = f32;
    /// Eight query rows per `Xᵀ` pass halve the `Xᵀ` traffic on top of
    /// the halved element width.
    const GROUP: usize = 8;
    /// Eight strip accumulators × 256 × 8 B = 16 KiB of `f64` tile plus
    /// 4 KiB of `f32` strips sit comfortably in L1d.
    const JT: usize = 256;
    fn rows(&self) -> usize {
        MatF32::rows(self)
    }
    fn cols(&self) -> usize {
        MatF32::cols(self)
    }
    fn row(&self, i: usize) -> &[f32] {
        MatF32::row(self, i)
    }
    fn transpose(&self) -> Self {
        MatF32::transpose(self)
    }
}

/// The exact search on already-centred rows in `S`'s storage.
fn knn_stored<S: GramRows>(x: &S, p: usize, threads: usize) -> Vec<Vec<usize>> {
    let n = x.rows();
    // Squared norms of the rows as stored, widened, summed in the same
    // ascending order as `vecops::dot`.
    let sq_norms: Vec<f64> = (0..n)
        .map(|i| {
            x.row(i)
                .iter()
                .map(|&v| {
                    let w: f64 = v.into();
                    w * w
                })
                .sum()
        })
        .collect();
    let xt = x.transpose();
    par_chunks_map(n, threads, |range| {
        knn_rows(x, &xt, &sq_norms, p, range.start, range.end)
    })
}

/// Subtract each column's mean. A column whose mean is non-finite (any
/// NaN/∞ feature) is left untouched so one bad row poisons only its own
/// distances, exactly like the uncentred kernel.
///
/// Public because incremental consumers (`mtrl-stream`'s
/// `DynamicGraph`) and the RMC candidate search must centre their data
/// with *this exact* transformation to stay on the bit-identical
/// distance contract of [`gram_sq_dist`].
pub fn center_columns(data: &Mat) -> Mat {
    let (n, d) = data.shape();
    if n == 0 {
        return data.clone();
    }
    let mut means = vec![0.0; d];
    for i in 0..n {
        for (m, &v) in means.iter_mut().zip(data.row(i)) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
        if !m.is_finite() {
            *m = 0.0;
        }
    }
    let mut out = data.clone();
    for i in 0..n {
        for (v, &m) in out.row_mut(i).iter_mut().zip(&means) {
            *v -= m;
        }
    }
    out
}

/// Neighbour lists for rows `[r0, r1)` via tiled Gram-trick distances.
fn knn_rows<S: GramRows>(
    data: &S,
    xt: &S,
    sq_norms: &[f64],
    p: usize,
    r0: usize,
    r1: usize,
) -> Vec<Vec<usize>> {
    let n = data.rows();
    let mut out = Vec::with_capacity(r1 - r0);
    let mut tile_buf = vec![0.0; TILE.min(r1 - r0).max(1) * n];
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(p + 1);
    let mut t0 = r0;
    while t0 < r1 {
        let t1 = (t0 + TILE).min(r1);
        let rows = t1 - t0;
        gram_tile_neg2(data, xt, t0, t1, &mut tile_buf);
        for local in 0..rows {
            let i = t0 + local;
            let brow = &tile_buf[local * n..(local + 1) * n];
            out.push(top_p_scan(brow, sq_norms, i, p, &mut scratch));
        }
        t0 = t1;
    }
    out
}

/// Accumulate `tile_buf[local][j] = −2 · src[t0 + local] · Xᵀ[.., j]`
/// for the row tile `[t0, t1)` of `src` — the one Gram micro-kernel
/// behind both the exact [`knn_indices`] (`src` = the data itself, in either
/// storage) and [`cross_sq_dist_map`] (`src` = the query batch). Sharing
/// the implementation is what makes their per-pair values bit-identical
/// **by construction** — the exactness contract `mtrl-stream`'s
/// incremental maintenance rests on.
///
/// Every output row is accumulated over `k` in ascending order with no
/// skip, so the value of each `(i, j)` cross term is independent of
/// tiles, register blocking, threads and storage width.
fn gram_tile_neg2<S: GramRows>(src: &S, xt: &S, t0: usize, t1: usize, tile_buf: &mut [f64]) {
    let n = xt.cols();
    let d = src.cols();
    let rows = t1 - t0;
    tile_buf[..rows * n].fill(0.0);
    let mut brows: Vec<&mut [f64]> = tile_buf[..rows * n].chunks_mut(n.max(1)).collect();
    for (g, group) in brows.chunks_mut(S::GROUP).enumerate() {
        let i0 = t0 + g * S::GROUP;
        if group.len() == S::GROUP {
            // Register-blocked micro-kernel: a group of output rows
            // shares each streamed strip of Xᵀ and the k dimension is
            // unrolled by four so each output load/store amortises over
            // four FMAs. `mul_add` maps to one hardware FMA per element
            // (the repo builds with `target-cpu=native`, see
            // .cargo/config.toml); on FMA-less targets it falls back to
            // a slow libm call but stays exact. A nested `mul_add` chain
            // performs the exact same rounding sequence as the
            // sequential k loop of the remainder kernel below, keeping
            // every path bit-identical. Each f32 element is widened at
            // its point of use (the convert fuses with the load);
            // widening into an f64 scratch first was measured slower.
            let mut jt = 0;
            while jt < n {
                let je = (jt + S::JT).min(n);
                let mut k = 0;
                while k + 4 <= d {
                    let xk = [
                        &xt.row(k)[jt..je],
                        &xt.row(k + 1)[jt..je],
                        &xt.row(k + 2)[jt..je],
                        &xt.row(k + 3)[jt..je],
                    ];
                    for (local, b) in group.iter_mut().enumerate() {
                        let x = &src.row(i0 + local)[k..k + 4];
                        let a = [
                            -2.0 * x[0].into(),
                            -2.0 * x[1].into(),
                            -2.0 * x[2].into(),
                            -2.0 * x[3].into(),
                        ];
                        axpy4_fma(&mut b[jt..je], a, xk);
                    }
                    k += 4;
                }
                while k < d {
                    let xk = &xt.row(k)[jt..je];
                    for (local, b) in group.iter_mut().enumerate() {
                        axpy1_fma(&mut b[jt..je], -2.0 * src.row(i0 + local)[k].into(), xk);
                    }
                    k += 1;
                }
                jt = je;
            }
        } else {
            // Remainder rows one at a time; per-(i, j) arithmetic is
            // the same k-ascending accumulation as the group kernel.
            for (local, brow) in group.iter_mut().enumerate() {
                let xrow = src.row(i0 + local);
                for (k, &xv) in xrow.iter().enumerate() {
                    axpy1_fma(brow, -2.0 * xv.into(), xt.row(k));
                }
            }
        }
    }
}

/// Squared distance `‖a − b‖²` through the Gram identity
/// `g_a + g_b − 2·aᵀb`, with the cross term accumulated in ascending-`k`
/// FMA order — **the exact rounding sequence of the blocked kernel**
/// (`axpy1_fma` / `axpy4_fma` chains), so the value equals what any
/// tile/thread layout of [`cross_sq_dist_map`] produces for the same
/// pair. `g_a` / `g_b` must be `dot(a, a)` / `dot(b, b)` of the rows as
/// passed (callers that centre their data pass centred rows and norms).
///
/// `mtrl-stream`'s `DynamicGraph` uses this for single-pair repairs so
/// repaired neighbour lists stay consistent with batch-inserted ones.
#[inline]
pub fn gram_sq_dist(a: &[f64], b: &[f64], g_a: f64, g_b: f64) -> f64 {
    let mut acc = 0.0;
    for (&av, &bv) in a.iter().zip(b) {
        acc = (-2.0 * av).mul_add(bv, acc);
    }
    g_a + g_b + acc
}

/// Four [`gram_sq_dist`] evaluations of one query against four corpus
/// rows with their accumulator chains interleaved. Each lane performs
/// the identical ascending-`k` FMA sequence of the scalar function —
/// the lanes are data-independent, so interleaving changes scheduling,
/// never rounding — which makes every returned value bit-equal to the
/// corresponding scalar call (pinned by `gram_sq_dist_x4_matches_scalar`).
///
/// The scalar chain is latency-bound (each `mul_add` waits on the
/// previous one); four independent chains keep the FMA unit fed, which
/// is worth ~3× on candidate re-ranking in [`crate::ann`], where
/// distances are evaluated per candidate instead of per blocked tile.
///
/// # Panics
/// Panics if any `b` row length differs from `a`'s.
#[inline]
pub(crate) fn gram_sq_dist_x4(a: &[f64], b: [&[f64]; 4], g_a: f64, g_b: [f64; 4]) -> [f64; 4] {
    let d = a.len();
    let [b0, b1, b2, b3] = b;
    assert_eq!(b0.len(), d, "row length mismatch");
    assert_eq!(b1.len(), d, "row length mismatch");
    assert_eq!(b2.len(), d, "row length mismatch");
    assert_eq!(b3.len(), d, "row length mismatch");
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for k in 0..d {
        let m = -2.0 * a[k];
        a0 = m.mul_add(b0[k], a0);
        a1 = m.mul_add(b1[k], a1);
        a2 = m.mul_add(b2[k], a2);
        a3 = m.mul_add(b3[k], a3);
    }
    [
        g_a + g_b[0] + a0,
        g_a + g_b[1] + a1,
        g_a + g_b[2] + a2,
        g_a + g_b[3] + a3,
    ]
}

/// Blocked Gram-trick distances of `queries` rows against **all**
/// `corpus` rows, streamed to a per-query callback.
///
/// For each query row `q` (in order), `f(q, strip)` receives the strip
/// `strip[j] = g_q + g_j − 2·x_qᵀx_j` over every corpus row `j`,
/// computed with the same register-blocked ascending-`k` FMA kernel as
/// [`knn_indices`] — each `(q, j)` value is a pure function of the two
/// rows, independent of tiling, threading and of how queries are
/// batched across calls. Queries are distributed over `threads` workers
/// in contiguous chunks; results come back in query order.
///
/// Callers own the centring policy: the full-graph path centres by the
/// data's column means; an incremental consumer must pass rows (and
/// matching `q_norms` / `c_norms` of squared row norms) translated by
/// one *fixed* vector so distances compare consistently across batches.
///
/// # Panics
/// Panics if the column counts differ or a norm slice has the wrong
/// length.
pub fn cross_sq_dist_map<T, F>(
    queries: &Mat,
    q_norms: &[f64],
    corpus: &Mat,
    c_norms: &[f64],
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f64]) -> T + Sync,
{
    assert_eq!(
        queries.cols(),
        corpus.cols(),
        "cross_sq_dist_map: dimension mismatch"
    );
    assert_eq!(q_norms.len(), queries.rows(), "q_norms length");
    assert_eq!(c_norms.len(), corpus.rows(), "c_norms length");
    let n = corpus.rows();
    if n == 0 {
        // Degenerate but well-formed: every query sees an empty strip.
        return (0..queries.rows()).map(|q| f(q, &[])).collect();
    }
    let ct = corpus.transpose();
    par_chunks_map(queries.rows(), threads, |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut tile_buf = vec![0.0; TILE.min(range.len().max(1)) * n];
        let mut t0 = range.start;
        while t0 < range.end {
            let t1 = (t0 + TILE).min(range.end);
            // The shared micro-kernel of `knn_rows` — per-pair cross
            // terms are bit-identical between the two entry points by
            // construction.
            gram_tile_neg2(queries, &ct, t0, t1, &mut tile_buf);
            for local in 0..(t1 - t0) {
                let q = t0 + local;
                let gq = q_norms[q];
                let strip = &mut tile_buf[local * n..(local + 1) * n];
                for (s, &gj) in strip.iter_mut().zip(c_norms) {
                    *s += gq + gj;
                }
                out.push(f(q, strip));
            }
            t0 = t1;
        }
        out
    })
}

/// `o[j] += a · x[j]` as one widening + one FMA per element.
#[inline]
fn axpy1_fma<E: Copy + Into<f64>>(o: &mut [f64], a: f64, x: &[E]) {
    for (ov, &xv) in o.iter_mut().zip(x) {
        *ov = a.mul_add(xv.into(), *ov);
    }
}

/// Four accumulation steps per element in ascending-k order:
/// `o[j] += a₀x₀[j]; o[j] += a₁x₁[j]; …` as a nested FMA chain — the
/// same rounding sequence as four [`axpy1_fma`] calls, with the output
/// load/store amortised over all four.
#[inline]
fn axpy4_fma<E: Copy + Into<f64>>(o: &mut [f64], a: [f64; 4], x: [&[E]; 4]) {
    let [x0, x1, x2, x3] = x;
    for ((((ov, &v0), &v1), &v2), &v3) in o.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        *ov = a[3].mul_add(
            v3.into(),
            a[2].mul_add(
                v2.into(),
                a[1].mul_add(v1.into(), a[0].mul_add(v0.into(), *ov)),
            ),
        );
    }
}

/// `(dist, index)` strict total order: `f64::total_cmp` on the distance
/// (NaN greater than every real), ascending index on ties. Both selection
/// paths — this scan and `select_p_nearest` — pick the `p` smallest
/// elements of the same order, so their neighbour *sets* always agree.
///
/// Public so candidate-based selections elsewhere (`mtrl-stream`'s
/// incremental maintenance, [`crate::ann`]'s probe unions) pick the same
/// `p` elements as the exact scan whenever their candidate sets cover
/// the true neighbours.
#[inline]
pub fn dist_less(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == std::cmp::Ordering::Less
}

/// Single fused pass over one row's distance strip: `dist(i, j) =
/// g_i + g_j + buf_j` and a `p`-element insertion set, no scratch tuple
/// vector. Expected insertions are `O(p log n)`, so the scan is one
/// compare per candidate almost everywhere.
fn top_p_scan(
    brow: &[f64],
    sq_norms: &[f64],
    i: usize,
    p: usize,
    best: &mut Vec<(f64, usize)>,
) -> Vec<usize> {
    best.clear();
    if p == 0 {
        return Vec::new();
    }
    let gi = sq_norms[i];
    for (j, (&b, &gj)) in brow.iter().zip(sq_norms).enumerate() {
        if j == i {
            continue;
        }
        let cand = (gi + gj + b, j);
        if best.len() < p {
            let pos = best.partition_point(|&e| dist_less(e, cand));
            best.insert(pos, cand);
        } else {
            let worst = *best.last().expect("p > 0");
            // Fast path: strictly worse than the current cut (false for
            // NaN, which then loses in dist_less below).
            if cand.0 > worst.0 {
                continue;
            }
            if dist_less(cand, worst) {
                let pos = best.partition_point(|&e| dist_less(e, cand));
                best.insert(pos, cand);
                best.pop();
            }
        }
    }
    let mut neigh: Vec<usize> = best.iter().map(|&(_, j)| j).collect();
    neigh.sort_unstable();
    neigh
}

/// Take the `p` smallest `(distance, index)` pairs, total-ordered with
/// index tie-break, returned as index-sorted neighbour lists. The order
/// is exactly [`dist_less`], so any candidate set that covers the true
/// `p` nearest selects the exact neighbour list.
pub(crate) fn select_p_nearest(scratch: &mut [(f64, usize)], p: usize) -> Vec<usize> {
    let k = p.min(scratch.len());
    if k > 0 && k < scratch.len() {
        scratch.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    let mut neigh: Vec<usize> = scratch[..k].iter().map(|&(_, j)| j).collect();
    neigh.sort_unstable();
    neigh
}

/// The seed repository's brute-force construction (serial `sq_dist`
/// per pair), kept as the correctness reference for the blocked kernel
/// and the neighbour lists of [`pnn_graph_brute_reference`].
fn knn_indices_brute_reference(data: &Mat, p: usize) -> Vec<Vec<usize>> {
    let n = data.rows();
    let mut out = Vec::with_capacity(n);
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(n.saturating_sub(1));
    for i in 0..n {
        scratch.clear();
        let xi = data.row(i);
        for j in 0..n {
            if j == i {
                continue;
            }
            scratch.push((sq_dist(xi, data.row(j)), j));
        }
        out.push(select_p_nearest(&mut scratch, p));
    }
    out
}

/// The seed repository's full serial `pnn_graph` path (brute-force kNN
/// plus a COO round-trip) — the baseline the `micro_graph` scaling bench
/// and the committed `BENCH_graph.json` measure speedups against. Not
/// part of the supported API.
#[doc(hidden)]
pub fn pnn_graph_brute_reference(data: &Mat, p: usize, scheme: WeightScheme) -> Csr {
    let n = data.rows();
    let neighbours = knn_indices_brute_reference(data, p);
    let sigma = match scheme {
        WeightScheme::HeatKernel { sigma } if sigma <= 0.0 => self_tuning_sigma(data, &neighbours),
        WeightScheme::HeatKernel { sigma } => sigma,
        _ => 1.0,
    };
    let mut coo = mtrl_sparse::Coo::with_capacity(n, n, 2 * p * n);
    for (i, neigh) in neighbours.iter().enumerate() {
        let xi = data.row(i);
        for &j in neigh {
            let w = match scheme {
                WeightScheme::Binary => 1.0,
                WeightScheme::HeatKernel { .. } => (-sq_dist(xi, data.row(j)) / sigma).exp(),
                WeightScheme::Cosine => cosine(xi, data.row(j)).max(0.0),
            };
            if w > 0.0 {
                coo.push(i, j, w);
            }
        }
    }
    coo.to_csr().max_symmetrize()
}

/// Build the symmetric pNN weight matrix `W_E` of Eq. (3): the
/// neighbour lists of [`knn_indices`] under `backend` and `precision`,
/// weighted by `scheme` on the raw `f64` rows and "or"-symmetrised
/// ([`graph_from_neighbours`]).
///
/// `data` holds one object per row. The output is a symmetric nonnegative
/// sparse matrix with zero diagonal, bit-identical for every pool size.
/// With obs on, every mode records `graph.pnn_build` over
/// `graph.index_build` (approximate backends only), `graph.knn_search`
/// and `graph.weights`.
pub fn pnn_graph(
    data: &Mat,
    p: usize,
    scheme: WeightScheme,
    backend: &GraphBackend,
    precision: Precision,
) -> Csr {
    pnn_graph_with_threads(data, p, scheme, backend, precision, all_pairs_threads(data))
}

/// [`pnn_graph`] on an explicit worker count.
fn pnn_graph_with_threads(
    data: &Mat,
    p: usize,
    scheme: WeightScheme,
    backend: &GraphBackend,
    precision: Precision,
    threads: usize,
) -> Csr {
    let _span = mtrl_obs::span!("graph.pnn_build");
    let neighbours = knn_search(data, p, backend, precision, threads);
    let _weights_span = mtrl_obs::span!("graph.weights");
    graph_from_neighbours(data, &neighbours, scheme, threads)
}

/// Assemble the symmetric weighted graph of Eq. (3) from precomputed
/// neighbour lists — the weighting + "or"-symmetrisation half of
/// [`pnn_graph`], shared with incremental constructions (`mtrl-stream`'s
/// `DynamicGraph`) so a dynamically maintained neighbour structure
/// exports *exactly* the graph the batch path would build from the same
/// lists. Weights are pairwise functions of the raw feature rows
/// (`sq_dist` / `cosine`), so they never depend on how the lists were
/// obtained; heat-kernel self-tuning (`sigma <= 0`) recomputes the mean
/// squared neighbour distance over the lists as given.
///
/// `neighbours[i]` must hold index-sorted, in-range neighbours of row
/// `i`, excluding `i` itself (rows with no neighbours are allowed and
/// yield empty graph rows).
///
/// # Panics
/// Panics if `neighbours.len() != data.rows()` or a list violates the
/// ordering contract (via the CSR builder).
pub fn graph_from_neighbours(
    data: &Mat,
    neighbours: &[Vec<usize>],
    scheme: WeightScheme,
    threads: usize,
) -> Csr {
    let n = data.rows();
    assert_eq!(neighbours.len(), n, "one neighbour list per data row");
    let sigma = match scheme {
        WeightScheme::HeatKernel { sigma } if sigma <= 0.0 => self_tuning_sigma(data, neighbours),
        WeightScheme::HeatKernel { sigma } => sigma,
        _ => 1.0,
    };
    // Edge weights per row, computed with the same pairwise formulas as
    // the seed path (weights depend only on the neighbour pair, never on
    // the chunking). Cosine weights take each row's norm from one table.
    let norms: Vec<f64> = match scheme {
        WeightScheme::Cosine => (0..n).map(|i| norm2(data.row(i))).collect(),
        _ => Vec::new(),
    };
    let weights: Vec<Vec<f64>> = par_chunks_map(n, threads, |range| {
        range
            .map(|i| {
                let xi = data.row(i);
                match scheme {
                    WeightScheme::Binary => vec![1.0; neighbours[i].len()],
                    WeightScheme::HeatKernel { .. } => neighbours[i]
                        .iter()
                        .map(|&j| (-sq_dist(xi, data.row(j)) / sigma).exp())
                        .collect(),
                    WeightScheme::Cosine => cosine_weights(data, &norms, i, &neighbours[i]),
                }
            })
            .collect()
    });
    // Neighbour lists are index-sorted, so the CSR assembles directly.
    let max_p = neighbours.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = mtrl_sparse::CsrBuilder::with_capacity(n, n, 2 * max_p * n);
    for (neigh, ws) in neighbours.iter().zip(&weights) {
        for (&j, &w) in neigh.iter().zip(ws) {
            if w > 0.0 {
                out.push(j, w);
            }
        }
        out.finish_row();
    }
    // "or" symmetrisation: keep an edge if either endpoint chose it. Using
    // max avoids double-counting mutual neighbours.
    out.build().max_symmetrize()
}

/// `cosine(x_i, x_j).max(0.0)` for every neighbour `j` of row `i`, bit
/// for bit: the row norms come from `norms`, and the dots run as four
/// interleaved chains at a time, each summed in index order as `dot` does.
fn cosine_weights(data: &Mat, norms: &[f64], i: usize, neigh: &[usize]) -> Vec<f64> {
    // `vecops::cosine`'s rule on precomputed parts.
    let weight = |dot: f64, j: usize| {
        let (na, nb) = (norms[i], norms[j]);
        if na < 1e-300 || nb < 1e-300 {
            0.0
        } else {
            (dot / (na * nb)).clamp(-1.0, 1.0).max(0.0)
        }
    };
    let xi = data.row(i);
    let mut out = Vec::with_capacity(neigh.len());
    let mut quads = neigh.chunks_exact(4);
    for q in &mut quads {
        let ds = dots(xi, [q[0], q[1], q[2], q[3]].map(|j| data.row(j)));
        out.extend(q.iter().zip(ds).map(|(&j, d)| weight(d, j)));
    }
    for &j in quads.remainder() {
        let [d] = dots(xi, [data.row(j)]);
        out.push(weight(d, j));
    }
    out
}

/// Self-tuning bandwidth: mean squared neighbour distance across the graph.
fn self_tuning_sigma(data: &Mat, neighbours: &[Vec<usize>]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (i, neigh) in neighbours.iter().enumerate() {
        let xi = data.row(i);
        for &j in neigh {
            total += sq_dist(xi, data.row(j));
            count += 1;
        }
    }
    if count == 0 || total <= 0.0 {
        1.0
    } else {
        total / count as f64
    }
}

/// Capped sorted insertion under [`dist_less`]: keep `list` the `p`
/// smallest candidates seen, sorted ascending. Returns whether `cand`
/// entered the list. Shared with incremental maintenance
/// (`mtrl-stream`'s `DynamicGraph`) and the RMC candidate search so
/// their selections match the batch path's.
pub fn insert_capped(list: &mut Vec<(f64, usize)>, cand: (f64, usize), p: usize) -> bool {
    if p == 0 {
        return false;
    }
    if list.len() >= p {
        let worst = *list.last().expect("p > 0");
        if !dist_less(cand, worst) {
            return false;
        }
        list.pop();
    }
    let pos = list.partition_point(|&e| dist_less(e, cand));
    list.insert(pos, cand);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::rand_uniform;
    use mtrl_linalg::vecops::dot;
    use proptest::prelude::*;

    const EXACT: GraphBackend = GraphBackend::Exact;

    /// The exact f64 search through the public entry.
    fn knn(data: &Mat, p: usize) -> Vec<Vec<usize>> {
        knn_indices(data, p, &EXACT, Precision::F64)
    }

    /// The exact f64 search on an explicit worker count.
    fn knn_t(data: &Mat, p: usize, threads: usize) -> Vec<Vec<usize>> {
        knn_exact(data, p, Precision::F64, threads)
    }

    /// The exact f64 graph through the public entry.
    fn pnn(data: &Mat, p: usize, scheme: WeightScheme) -> Csr {
        pnn_graph(data, p, scheme, &EXACT, Precision::F64)
    }

    /// The exact f64 graph on an explicit worker count.
    fn pnn_t(data: &Mat, p: usize, scheme: WeightScheme, threads: usize) -> Csr {
        pnn_graph_with_threads(data, p, scheme, &EXACT, Precision::F64, threads)
    }

    /// Three tight, well-separated clusters on a line.
    fn clustered_data() -> Mat {
        let mut rows = Vec::new();
        for c in 0..3 {
            for k in 0..4 {
                rows.push(vec![c as f64 * 100.0 + k as f64 * 0.1, 0.0]);
            }
        }
        Mat::from_rows(&rows).unwrap()
    }

    #[test]
    fn knn_finds_cluster_mates() {
        let data = clustered_data();
        let nn = knn(&data, 3);
        for (i, neigh) in nn.iter().enumerate() {
            assert_eq!(neigh.len(), 3);
            let my_cluster = i / 4;
            for &j in neigh {
                assert_eq!(j / 4, my_cluster, "object {i} got neighbour {j}");
            }
            assert!(!neigh.contains(&i), "self-neighbour");
        }
    }

    #[test]
    fn knn_handles_small_n() {
        let data = Mat::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let nn = knn(&data, 5);
        assert_eq!(nn[0], vec![1]);
        assert_eq!(nn[1], vec![0]);
    }

    #[test]
    fn knn_single_row_has_no_neighbours() {
        let data = Mat::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let nn = knn(&data, 4);
        assert_eq!(nn, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn gram_kernel_matches_brute_reference() {
        for (n, d, p, seed) in [(30, 5, 4, 70), (57, 17, 6, 71), (16, 1, 3, 72)] {
            let data = rand_uniform(n, d, -1.0, 1.0, seed);
            assert_eq!(
                knn_t(&data, p, 1),
                knn_indices_brute_reference(&data, p),
                "n={n} d={d} p={p}"
            );
        }
    }

    #[test]
    fn parallel_bit_identical_to_serial() {
        let data = rand_uniform(83, 9, -1.0, 1.0, 73);
        let serial = knn_t(&data, 5, 1);
        for threads in 2..=8 {
            assert_eq!(knn_t(&data, 5, threads), serial, "threads={threads}");
        }
        let w_serial = pnn_t(&data, 5, WeightScheme::Cosine, 1);
        for threads in 2..=8 {
            let w = pnn_t(&data, 5, WeightScheme::Cosine, threads);
            assert_eq!(w, w_serial, "threads={threads}");
        }
    }

    #[test]
    fn blocked_graph_matches_seed_reference_path() {
        let data = rand_uniform(64, 7, 0.0, 1.0, 74);
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            let seed_path = pnn_graph_brute_reference(&data, 5, scheme);
            let blocked = pnn(&data, 5, scheme);
            assert_eq!(blocked, seed_path, "{scheme:?}");
        }
    }

    #[test]
    fn far_from_origin_clusters_stay_stable() {
        // Regression: without column centring, gi + gj − 2·xiᵀxj loses
        // ~16 digits to cancellation when the cloud sits at ~1e8 and the
        // separations are ~1e-3, returning junk neighbours. The stable
        // sq_dist brute path is the ground truth here.
        let base = rand_uniform(60, 4, -1e-3, 1e-3, 75);
        let shifted = Mat::from_fn(60, 4, |i, j| 1.0e8 + base[(i, j)]);
        let nn = knn(&shifted, 4);
        assert_eq!(nn, knn_indices_brute_reference(&shifted, 4));
        // And the parallel paths agree bit for bit as always.
        for threads in 2..=4 {
            assert_eq!(knn_t(&shifted, 4, threads), nn);
        }
    }

    #[test]
    fn duplicate_points_break_ties_by_index() {
        // Four identical points plus one far away: the duplicates are at
        // exact distance zero of each other and ties resolve to the
        // lowest indices, identically in every path.
        let data = Mat::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![50.0, 50.0],
        ])
        .unwrap();
        let nn = knn(&data, 2);
        assert_eq!(nn[0], vec![1, 2]);
        assert_eq!(nn[1], vec![0, 2]);
        assert_eq!(nn[4], vec![0, 1]);
        assert_eq!(knn_t(&data, 2, 1), nn);
        assert_eq!(knn_indices_brute_reference(&data, 2), nn);
    }

    #[test]
    fn nan_rows_do_not_panic_and_sort_last() {
        // Regression: the seed path panicked on NaN distances via
        // `partial_cmp().expect()` inside the selection. NaN distances
        // now order after every finite distance.
        let data = Mat::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![2.0, 0.0],
        ])
        .unwrap();
        let nn = knn(&data, 2);
        // Finite rows never pick the NaN row while finite rows remain.
        assert_eq!(nn[0], vec![1, 3]);
        assert_eq!(nn[1], vec![0, 3]);
        assert_eq!(nn[3], vec![0, 1]);
        // The NaN row's own distances are all NaN; selection still
        // returns a deterministic, valid list (lowest indices).
        assert_eq!(nn[2].len(), 2);
        assert!(!nn[2].contains(&2));
        assert_eq!(knn_indices_brute_reference(&data, 2), nn);
        // And the graph construction stays finite-shaped too.
        let w = pnn(&data, 2, WeightScheme::Binary);
        assert_eq!(w.rows(), 4);
    }

    #[test]
    fn cross_kernel_matches_pair_function_bitwise() {
        // Every strip value must equal the scalar `gram_sq_dist` of the
        // same two rows — the contract `DynamicGraph` repairs rely on —
        // and must be bit-identical for every thread count.
        let queries = rand_uniform(23, 9, -1.0, 1.0, 90);
        let corpus = rand_uniform(41, 9, -1.0, 1.0, 91);
        let qn: Vec<f64> = (0..23)
            .map(|i| dot(queries.row(i), queries.row(i)))
            .collect();
        let cn: Vec<f64> = (0..41).map(|i| dot(corpus.row(i), corpus.row(i))).collect();
        let strips = |threads| {
            cross_sq_dist_map(&queries, &qn, &corpus, &cn, threads, |_, strip| {
                strip.to_vec()
            })
        };
        let serial = strips(1);
        for (q, strip) in serial.iter().enumerate() {
            for (j, &v) in strip.iter().enumerate() {
                let pair = gram_sq_dist(queries.row(q), corpus.row(j), qn[q], cn[j]);
                assert_eq!(v.to_bits(), pair.to_bits(), "({q},{j})");
                // And the Gram value approximates the stable distance.
                let direct = sq_dist(queries.row(q), corpus.row(j));
                assert!((v - direct).abs() < 1e-9, "({q},{j}): {v} vs {direct}");
            }
        }
        for threads in 2..=5 {
            assert_eq!(strips(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn cross_kernel_batched_queries_identical() {
        // Distances are a pure pair function: splitting the query set
        // across calls must not change a single bit.
        let data = rand_uniform(37, 6, -1.0, 1.0, 92);
        let norms: Vec<f64> = (0..37).map(|i| dot(data.row(i), data.row(i))).collect();
        let whole = cross_sq_dist_map(&data, &norms, &data, &norms, 1, |_, s| s.to_vec());
        let mut pieces = Vec::new();
        for (r0, r1) in [(0usize, 5usize), (5, 6), (6, 30), (30, 37)] {
            let part = data.submatrix(r0, 0, r1 - r0, 6);
            pieces.extend(cross_sq_dist_map(
                &part,
                &norms[r0..r1],
                &data,
                &norms,
                2,
                |_, s| s.to_vec(),
            ));
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn cross_kernel_empty_corpus_yields_empty_strips() {
        let queries = rand_uniform(3, 4, -1.0, 1.0, 94);
        let qn: Vec<f64> = (0..3)
            .map(|i| dot(queries.row(i), queries.row(i)))
            .collect();
        let strips = cross_sq_dist_map(&queries, &qn, &Mat::zeros(0, 4), &[], 2, |q, s| {
            (q, s.len())
        });
        assert_eq!(strips, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn graph_from_neighbours_matches_pnn_graph() {
        let data = rand_uniform(30, 5, 0.0, 1.0, 93);
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            let neighbours = knn(&data, 4);
            assert_eq!(
                graph_from_neighbours(&data, &neighbours, scheme, 1),
                pnn(&data, 4, scheme),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn cosine_weights_match_vecops_cosine_bits() {
        // Mixed-sign rows, some all-zero rows, and lists of every length
        // mod 4 (p up to 9 on 23 rows).
        let mut data = rand_uniform(23, 6, -1.0, 1.0, 94);
        for i in [3, 17] {
            data.row_mut(i).fill(0.0);
        }
        let norms: Vec<f64> = (0..data.rows()).map(|i| norm2(data.row(i))).collect();
        for p in 0..10 {
            let neighbours = knn(&data, p);
            for (i, neigh) in neighbours.iter().enumerate() {
                let fast = cosine_weights(&data, &norms, i, neigh);
                for (&j, w) in neigh.iter().zip(fast) {
                    let slow = cosine(data.row(i), data.row(j)).max(0.0);
                    assert_eq!(w.to_bits(), slow.to_bits(), "p {p} edge ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn pnn_graph_symmetric_nonneg_zero_diag() {
        let data = rand_uniform(30, 5, -1.0, 1.0, 60);
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: 0.5 },
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            let w = pnn(&data, 4, scheme);
            assert!(w.is_symmetric(1e-12), "{scheme:?} not symmetric");
            for (i, j, v) in w.iter() {
                assert!(v >= 0.0, "{scheme:?} negative weight");
                assert_ne!(i, j, "{scheme:?} self loop");
            }
        }
    }

    #[test]
    fn binary_weights_are_one() {
        let data = clustered_data();
        let w = pnn(&data, 2, WeightScheme::Binary);
        for (_, _, v) in w.iter() {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn heat_kernel_decays_with_distance() {
        let data = Mat::from_rows(&[vec![0.0], vec![1.0], vec![3.0]]).unwrap();
        let w = pnn(&data, 2, WeightScheme::HeatKernel { sigma: 1.0 });
        // d(0,1)=1 < d(0,2)=9 => w(0,1) > w(0,2).
        assert!(w.get(0, 1) > w.get(0, 2));
        assert!((w.get(0, 1) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn cosine_weights_bounded() {
        let data = rand_uniform(20, 4, 0.0, 1.0, 61);
        let w = pnn(&data, 3, WeightScheme::Cosine);
        for (_, _, v) in w.iter() {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn edge_count_bounded_by_2pn() {
        let data = rand_uniform(40, 3, -1.0, 1.0, 62);
        let p = 5;
        let w = pnn(&data, p, WeightScheme::Binary);
        assert!(w.nnz() <= 2 * p * 40);
        // And at least p*n (each object contributes p out-edges).
        assert!(w.nnz() >= p * 40);
    }

    #[test]
    fn separated_clusters_have_no_cross_edges() {
        let data = clustered_data();
        let w = pnn(&data, 3, WeightScheme::Binary);
        for (i, j, _) in w.iter() {
            assert_eq!(i / 4, j / 4, "cross-cluster edge {i}-{j}");
        }
    }

    #[test]
    fn gram_sq_dist_x4_matches_scalar_bitwise() {
        let data = rand_uniform(9, 37, -2.0, 2.0, 71);
        let norms: Vec<f64> = (0..9).map(|i| dot(data.row(i), data.row(i))).collect();
        let a = data.row(0);
        for base in [1usize, 5] {
            let rows = [
                data.row(base),
                data.row(base + 1),
                data.row(base + 2),
                data.row(base + 3),
            ];
            let g = [
                norms[base],
                norms[base + 1],
                norms[base + 2],
                norms[base + 3],
            ];
            let quad = gram_sq_dist_x4(a, rows, norms[0], g);
            for lane in 0..4 {
                let scalar = gram_sq_dist(a, rows[lane], norms[0], g[lane]);
                assert_eq!(
                    quad[lane].to_bits(),
                    scalar.to_bits(),
                    "lane {lane} diverged from the scalar chain"
                );
            }
        }
    }

    #[test]
    fn self_tuning_sigma_positive() {
        let data = rand_uniform(10, 2, -1.0, 1.0, 63);
        let nn = knn(&data, 3);
        let s = self_tuning_sigma(&data, &nn);
        assert!(s > 0.0);
        // Degenerate: all points identical -> fallback 1.0.
        let same = Mat::zeros(5, 2);
        let nn2 = knn(&same, 2);
        assert_eq!(self_tuning_sigma(&same, &nn2), 1.0);
    }

    #[test]
    fn f32_tile_bit_equal_f64_tile_on_quantised_operands() {
        // The mixed-precision pin: the f32-storage instantiation of the
        // one tile kernel equals the f64 instantiation on the quantised
        // operands, bit for bit — across a full group and a remainder
        // group (19 rows = 2·8 + 3), a k remainder (d = 13) and several
        // column strips (n = 600 > both JTs).
        let x = rand_uniform(600, 13, -2.0, 2.0, 95);
        let x32 = MatF32::from_mat(&x);
        let xq = Precision::F32.quantized(&x);
        let (xt32, xtq) = (x32.transpose(), xq.transpose());
        let mut tile32 = vec![0.0; 19 * 600];
        let mut tile64 = vec![0.0; 19 * 600];
        for (t0, t1) in [(0, 19), (581, 600)] {
            gram_tile_neg2(&x32, &xt32, t0, t1, &mut tile32);
            gram_tile_neg2(xq.as_ref(), &xtq, t0, t1, &mut tile64);
            let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tile32), bits(&tile64), "tile [{t0}, {t1})");
        }
    }

    #[test]
    fn f32_knn_equals_pair_function_on_quantised_centred_rows() {
        let data = rand_uniform(83, 13, -3.0, 3.0, 23);
        let p = 6;
        let mut centered = center_columns(&data);
        Precision::F32.quantize_in_place(centered.as_mut_slice());
        let n = data.rows();
        let g: Vec<f64> = (0..n)
            .map(|i| dot(centered.row(i), centered.row(i)))
            .collect();
        let expected: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut scratch: Vec<(f64, usize)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| {
                        (
                            gram_sq_dist(centered.row(i), centered.row(j), g[i], g[j]),
                            j,
                        )
                    })
                    .collect();
                select_p_nearest(&mut scratch, p)
            })
            .collect();
        assert_eq!(knn_exact(&data, p, Precision::F32, 1), expected);
    }

    #[test]
    fn f32_knn_parallel_bit_identical_to_serial() {
        let data = rand_uniform(301, 17, -1.0, 4.0, 31);
        let serial = knn_exact(&data, 5, Precision::F32, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                knn_exact(&data, 5, Precision::F32, threads),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn f32_lists_match_f64_on_well_separated_data() {
        // Quantisation can only flip near-ties; on clustered data with
        // clear margins the f32 neighbour lists equal the f64 ones.
        let mut data = rand_uniform(120, 8, 0.0, 1.0, 43);
        for i in 0..data.rows() {
            let shift = (i % 3) as f64 * 50.0;
            for v in data.row_mut(i) {
                *v += shift;
            }
        }
        assert_eq!(knn_exact(&data, 7, Precision::F32, 2), knn_t(&data, 7, 2),);
    }

    // The cross-thread properties on the private bodies that take a
    // worker count: the public entries pick one from the pool, so only
    // here can a small input be forced onto several threads.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parallel_knn_bit_identical_to_serial(
            n in 1usize..40,
            d in 1usize..12,
            p in 0usize..8,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let data = rand_uniform(n, d, -2.0, 2.0, seed);
            prop_assert_eq!(knn_t(&data, p, threads), knn_t(&data, p, 1));
        }

        #[test]
        fn parallel_pnn_graph_bit_identical_to_serial(
            n in 2usize..30,
            d in 1usize..8,
            p in 1usize..7,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            let data = rand_uniform(n, d, 0.0, 1.0, seed);
            for scheme in [
                WeightScheme::Binary,
                WeightScheme::HeatKernel { sigma: -1.0 },
                WeightScheme::Cosine,
            ] {
                prop_assert_eq!(pnn_t(&data, p, scheme, threads), pnn_t(&data, p, scheme, 1));
            }
        }

        #[test]
        fn parallel_knn_f32_bit_identical_to_serial(
            n in 1usize..40,
            d in 1usize..12,
            p in 0usize..8,
            threads in 2usize..9,
            seed in any::<u64>()
        ) {
            // The f32-storage search makes the same promise as the f64
            // one: neighbour lists are a pure function of the data,
            // independent of the worker-thread count.
            let data = rand_uniform(n, d, -2.0, 2.0, seed);
            prop_assert_eq!(
                knn_exact(&data, p, Precision::F32, threads),
                knn_exact(&data, p, Precision::F32, 1)
            );
        }

        #[test]
        fn knn_duplicate_rows_stay_bit_identical(
            unique in 1usize..8,
            copies in 2usize..5,
            d in 1usize..6,
            threads in 1usize..9,
            seed in any::<u64>()
        ) {
            // Duplicated points produce exact distance ties — the
            // adversarial case for selection order. Every path must
            // agree bit for bit.
            let base = rand_uniform(unique, d, -1.0, 1.0, seed);
            let rows: Vec<Vec<f64>> = (0..unique * copies)
                .map(|i| base.row(i % unique).to_vec())
                .collect();
            let data = Mat::from_rows(&rows).unwrap();
            let p = (unique * copies).min(4);
            let serial = knn_t(&data, p, 1);
            prop_assert_eq!(&knn_t(&data, p, threads), &serial);
            // Sanity: a duplicate's nearest neighbours are its own copies.
            for (i, neigh) in serial.iter().enumerate() {
                let twin = neigh.iter().any(|&j| data.row(j) == data.row(i));
                prop_assert!(twin, "row {i} missed its duplicates: {neigh:?}");
            }
        }
    }
}
