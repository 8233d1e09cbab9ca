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
//! * rows are centred once ([`CentredRows`]) and distances come from
//!   the Gram identity `‖x_i − x_j‖² = g_i + g_j − 2·x_iᵀx_j`, with the
//!   `−2·x_iᵀx_j` terms computed on the packed `8 x 8` register tile
//!   that `mtrl-linalg`'s row Gram also runs on (its private `tile`
//!   module, compiled here): each cross term is one FMA chain
//!   `(−2·x_ik).mul_add(x_jk, acc)` over ascending `k` from `+0`;
//! * the search computes each unordered pair once and offers it to both
//!   rows' lists ([`insert_capped`], which keeps the `p` best under
//!   [`dist_less`]): `−2·x` is exact, so the chain of `(i, j)` and the
//!   chain of `(j, i)` round the same exact products onto the same sums
//!   and give the same bits. Where a centred value is `∞`, NaN or past
//!   `f64::MAX / 2` (doubling it is not exact, or NaN payloads could
//!   depend on operand order), both orientations are computed instead;
//! * row tiles are distributed over [`mtrl_linalg::par`] worker threads,
//!   each keeping its own lists, merged at the end.
//!
//! The lists hold the `p` smallest candidates of a strict total order,
//! so neither the order the pairs arrive in nor the split into workers
//! changes them; neighbour sets are **bit-identical** for every thread
//! count (see the cross-thread proptests below, which force thread
//! counts on the private bodies, and in `tests/proptest_invariants.rs`,
//! which go through the pool).
//!
//! ## Entry points
//!
//! [`CentredRows::p_nearest`] is the one exact all-pairs search. The
//! batch graph, RMC's candidate graphs (`rhchme::intra`) and
//! `mtrl-stream`'s `DynamicGraph` builds all call it.
//! [`knn_indices`] and [`pnn_graph`] take a [`GraphBackend`] and run on
//! the [`mtrl_linalg::par`] pool, with one worker below the
//! [`mtrl_linalg::par::threads_for`] work threshold.
//! [`GraphBackend::Exact`] runs that search;
//! [`GraphBackend::RpForest`] draws candidates from the index in
//! [`crate::ann`] and ranks them with this module's pair function and
//! selection order.
//!
//! Every operand and accumulation is `f64`. Distances are ranked on the
//! centred features; edge weighting ([`graph_from_neighbours`]) runs on
//! the raw rows.

use crate::ann::{self, GraphBackend};
use crate::tile::{for_each_tile, kernel, Panels, Tile, MR, NR};
use mtrl_linalg::par::{par_chunks_map, threads_for};
use mtrl_linalg::vecops::{cosine, dot, dots, norm2, sq_dist};
use mtrl_linalg::Mat;
use mtrl_sparse::Csr;
use std::ops::Range;

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

/// Query rows per strip batch of [`cross_sq_dist_map`]: bounds the
/// per-worker scratch at `TILE * n` doubles (512 KB at `n = 2000`).
const TILE: usize = 32;

/// Threads for an all-pairs pass over `data`: `n² d` multiply-adds.
fn all_pairs_threads(data: &Mat) -> usize {
    let n = data.rows();
    threads_for(n * n * data.cols())
}

/// Indices of the `p` nearest neighbours (Euclidean) of every row of
/// `data`, excluding the object itself, found by `backend`. Rows with
/// fewer than `p` other objects return everything available; lists are
/// index-sorted.
///
/// Ties (including the exact-zero distances of duplicate points) are
/// broken by ascending neighbour index; NaN distances order *after*
/// every real distance (`f64::total_cmp`), so a row containing NaN
/// features is never selected while finite alternatives exist and the
/// result is always well defined — no panic. Output is bit-identical
/// for every pool size.
pub fn knn_indices(data: &Mat, p: usize, backend: &GraphBackend) -> Vec<Vec<usize>> {
    knn_search(data, p, backend, all_pairs_threads(data))
}

/// [`knn_indices`] on an explicit worker count, timed as
/// `graph.knn_search` (plus `graph.index_build` when an index is built).
fn knn_search(data: &Mat, p: usize, backend: &GraphBackend, threads: usize) -> Vec<Vec<usize>> {
    match backend {
        GraphBackend::Exact => {
            let _span = mtrl_obs::span!("graph.knn_search");
            knn_exact(data, p, threads)
        }
        GraphBackend::RpForest(params) => ann::knn_rp_forest(data, p, params, threads),
    }
}

/// The exact search on `threads` workers: each row's [`CentredRows::p_nearest`]
/// list, index-sorted.
fn knn_exact(data: &Mat, p: usize, threads: usize) -> Vec<Vec<usize>> {
    let lists = CentredRows::new(data).p_nearest_on(p, threads);
    lists.iter().map(|list| sorted_indices(list)).collect()
}

/// The neighbour ids of a `(distance, index)` list, ascending.
fn sorted_indices(list: &[(f64, usize)]) -> Vec<usize> {
    let mut ids: Vec<usize> = list.iter().map(|&(_, j)| j).collect();
    ids.sort_unstable();
    ids
}

/// Rows translated by fixed column means, with their squared norms: the
/// operands every exact and approximate search ranks on.
///
/// Centring comes before the Gram expansion. Euclidean distances are
/// translation-invariant, but `g_i + g_j − 2·x_iᵀx_j` cancels
/// catastrophically when ‖x‖² dwarfs the pairwise separations (data
/// clustered far from the origin — the classic euclidean_distances
/// pitfall); centring puts the origin inside the cloud where the
/// expansion is stable. The means are computed once, globally, so every
/// chunking sees the same centred values, and an incremental consumer
/// (`mtrl-stream`'s `DynamicGraph`) keeps them fixed
/// ([`CentredRows::with_means`]) so distances compare across batches.
#[derive(Debug, Clone)]
pub struct CentredRows {
    /// The translation: column means of the rows it was taken from. A
    /// non-finite mean (any NaN/∞ feature) is 0, so one bad row poisons
    /// only its own distances, exactly like uncentred data.
    pub means: Vec<f64>,
    /// The translated rows.
    pub rows: Mat,
    /// `dot(r, r)` of every translated row `r`.
    pub sq_norms: Vec<f64>,
}

impl CentredRows {
    /// `data` centred on its own column means.
    pub fn new(data: &Mat) -> Self {
        let (n, d) = data.shape();
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
        Self::with_means(data, means)
    }

    /// `data` translated by the given `means`.
    ///
    /// # Panics
    /// Panics if `means.len() != data.cols()`.
    pub fn with_means(data: &Mat, means: Vec<f64>) -> Self {
        assert_eq!(means.len(), data.cols(), "one mean per column");
        let mut rows = data.clone();
        for i in 0..rows.rows() {
            for (v, &m) in rows.row_mut(i).iter_mut().zip(&means) {
                *v -= m;
            }
        }
        let sq_norms = (0..rows.rows())
            .map(|i| dot(rows.row(i), rows.row(i)))
            .collect();
        CentredRows {
            means,
            rows,
            sq_norms,
        }
    }

    /// The crate's one exact all-pairs search: each row's `p` nearest
    /// other rows as `(distance, index)` pairs, ascending under
    /// [`dist_less`] (fewer when there are fewer other rows). Distance
    /// `(i, j)` is `−2·x_iᵀx_j + (g_i + g_j)`, its cross term one FMA
    /// chain over ascending `k` from `+0` on the packed tile, computed
    /// once per unordered pair and offered to both rows'
    /// [`insert_capped`] lists (both orientations when a centred value
    /// does not double exactly; see the module docs). The order is
    /// total, so a prefix of a row's list is its list for a smaller `p`.
    /// Output is bit-identical for every pool size.
    pub fn p_nearest(&self, p: usize) -> Vec<Vec<(f64, usize)>> {
        self.p_nearest_on(p, all_pairs_threads(&self.rows))
    }

    /// [`Self::p_nearest`] on `threads` workers: each searches a range
    /// of row tiles into its own lists, and the lists are merged.
    fn p_nearest_on(&self, p: usize, threads: usize) -> Vec<Vec<(f64, usize)>> {
        let (n, d) = self.rows.shape();
        if p == 0 {
            return vec![Vec::new(); n];
        }
        let x = self.rows.as_slice();
        let once = doubles_exactly(x);
        let right = Panels::<NR>::of_rows(x, n, d, 1.0);
        let g = &self.sq_norms;
        let search = |panels: Range<usize>| {
            let mut lists = vec![Vec::with_capacity(p + 1); n];
            for_each_tile(x, n, d, -2.0, panels, right.count(), once, |a, b, left| {
                let mut acc: Tile = [[0.0; NR]; MR];
                kernel::<true>(left, right.panel(b), &mut acc);
                for (i, row) in (a * MR..n.min(a * MR + MR)).zip(&acc) {
                    for (j, &cross) in (b * NR..n.min(b * NR + NR)).zip(row) {
                        let dist = cross + (g[i] + g[j]);
                        if once {
                            if j > i {
                                insert_capped(&mut lists[i], (dist, j), p);
                                insert_capped(&mut lists[j], (dist, i), p);
                            }
                        } else if j != i {
                            insert_capped(&mut lists[i], (dist, j), p);
                        }
                    }
                }
            });
            lists
        };
        let ranges = split_panels(n.div_ceil(MR), threads, n, once);
        let parts = par_chunks_map(ranges.len(), ranges.len(), |workers| {
            workers.map(|w| search(ranges[w].clone())).collect()
        });
        let mut parts = parts.into_iter();
        let mut lists = parts.next().unwrap_or_default();
        for part in parts {
            for (list, other) in lists.iter_mut().zip(part) {
                for cand in other {
                    insert_capped(list, cand, p);
                }
            }
        }
        lists
    }
}

/// Split `count` row tiles into at most `parts` contiguous ranges of
/// about equal work against `rows` rows: a tile meets all of them, or
/// with `upper` those from its own first row on.
fn split_panels(count: usize, parts: usize, rows: usize, upper: bool) -> Vec<Range<usize>> {
    let cost = |p: usize| rows.saturating_sub(if upper { p * MR } else { 0 }).max(1);
    let total: usize = (0..count).map(cost).sum();
    let (mut out, mut start, mut done) = (Vec::with_capacity(parts), 0, 0);
    for p in 0..count {
        done += cost(p);
        // The last tile always closes a range: `done` is then `total`.
        if done * parts >= total * (out.len() + 1) {
            out.push(start..p + 1);
            start = p + 1;
        }
    }
    out
}

/// Whether every value doubles exactly (finite, `|x| ≤ f64::MAX / 2`),
/// so that an FMA chain over these rows gives the same bits in either
/// orientation of a pair and the search may read each pair once.
fn doubles_exactly(values: &[f64]) -> bool {
    values.iter().all(|v| v.abs() <= f64::MAX / 2.0)
}

/// The exact search of [`CentredRows::p_nearest`] on rows whose leading
/// columns arrive over time and never change once seen: a vocabulary
/// type's feature view in a growing document stream,
/// `[document columns | fixed columns]`.
///
/// Every sum of that search resumes from a saved prefix. Each column is
/// centred on its own mean over the rows, summed in row order, so its
/// centred values do not depend on the other columns. Each squared norm
/// is one ascending [`dot`] fold from `−0`. Each cross term is one
/// ascending-`k` FMA chain from `+0`, the chain of the packed tile the
/// exact search runs on. So the search keeps the `rows × rows` cross
/// terms and the squared-norm partial sums over the leading columns
/// folded so far. [`Self::fold`] adds columns to them on the same tile,
/// one chain per unordered pair stored in both orientations while every
/// folded value doubles exactly (both orientations computed from the
/// first fold that holds one that does not), and [`Self::p_nearest`]
/// finishes a copy with the remaining columns and selects with
/// [`insert_capped`]. Its lists equal `CentredRows::new(data).p_nearest(p)`
/// bit for bit whenever the leading columns of `data` are the ones
/// folded before.
///
/// It holds `rows²` doubles, so it suits the small types.
#[derive(Debug, Clone)]
pub struct PrefixSearch {
    rows: usize,
    folded: usize,
    /// Row-major `rows × rows` cross terms `−2·Σ_k c_ik c_jk`.
    cross: Vec<f64>,
    /// `Σ_k c_ik²` per row.
    sq_norms: Vec<f64>,
    /// Whether every folded centred value doubles exactly, so `cross` is
    /// symmetric and a fold may run each pair's chain once.
    once: bool,
}

impl PrefixSearch {
    /// A search over `rows` objects with no column folded yet.
    pub fn new(rows: usize) -> Self {
        PrefixSearch {
            rows,
            folded: 0,
            cross: vec![0.0; rows * rows],
            sq_norms: vec![-0.0; rows],
            once: true,
        }
    }

    /// Fold columns `[folded, upto)` of `data` into the saved sums, where
    /// `folded` is where the last fold stopped (0 for a new search).
    ///
    /// # Panics
    /// Panics if `data` has another row count or `upto` lies outside
    /// `folded..=data.cols()`.
    pub fn fold(&mut self, data: &Mat, upto: usize) {
        self.check(data, upto);
        let cols = self.folded..upto;
        fold_columns(
            data,
            cols,
            &mut self.cross,
            &mut self.sq_norms,
            &mut self.once,
        );
        self.folded = upto;
    }

    /// Each row's `p` nearest other rows of `data`, as
    /// [`CentredRows::p_nearest`] returns them: a copy of the saved sums
    /// takes the columns past the last fold, then each row's strip is
    /// selected in index order.
    ///
    /// # Panics
    /// As [`Self::fold`] with `upto = data.cols()`.
    pub fn p_nearest(&self, data: &Mat, p: usize) -> Vec<Vec<(f64, usize)>> {
        self.check(data, data.cols());
        let n = self.rows;
        let mut cross = self.cross.clone();
        let mut g = self.sq_norms.clone();
        let mut once = self.once;
        fold_columns(
            data,
            self.folded..data.cols(),
            &mut cross,
            &mut g,
            &mut once,
        );
        (0..n)
            .map(|i| {
                let mut best = Vec::with_capacity(p + 1);
                let strip = &cross[i * n..(i + 1) * n];
                for (j, (&c, &gj)) in strip.iter().zip(&g).enumerate() {
                    if j != i {
                        insert_capped(&mut best, (c + (g[i] + gj), j), p);
                    }
                }
                best
            })
            .collect()
    }

    fn check(&self, data: &Mat, upto: usize) {
        assert_eq!(data.rows(), self.rows, "PrefixSearch: row count");
        assert!(
            (self.folded..=data.cols()).contains(&upto),
            "PrefixSearch: columns {}..{upto} of {}",
            self.folded,
            data.cols()
        );
    }
}

/// Add columns `cols` of `data`, each centred on its own mean, to the
/// cross terms and squared norms of [`PrefixSearch`] in the order of
/// [`CentredRows::new`] and [`CentredRows::p_nearest`]. While `once`
/// holds, `cross` is symmetric, and each pair's chain runs once and is
/// stored in both places; `once` falls for good at the first centred
/// value that does not double exactly.
fn fold_columns(
    data: &Mat,
    cols: Range<usize>,
    cross: &mut [f64],
    sq_norms: &mut [f64],
    once: &mut bool,
) {
    let n = data.rows();
    let w = cols.len();
    if w == 0 || n == 0 {
        return;
    }
    let mut means = vec![0.0; w];
    for i in 0..n {
        for (m, &v) in means.iter_mut().zip(&data.row(i)[cols.clone()]) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
        if !m.is_finite() {
            *m = 0.0;
        }
    }
    // The centred columns, row by row, and each row's norm fold.
    let mut centred = vec![0.0; n * w];
    for (i, (g, out)) in sq_norms
        .iter_mut()
        .zip(centred.chunks_exact_mut(w))
        .enumerate()
    {
        for ((o, &v), &m) in out.iter_mut().zip(&data.row(i)[cols.clone()]).zip(&means) {
            *o = v - m;
            *g += *o * *o;
        }
    }
    *once &= doubles_exactly(&centred);
    let once = *once;
    let right = Panels::<NR>::of_rows(&centred, n, w, 1.0);
    let left = 0..n.div_ceil(MR);
    for_each_tile(
        &centred,
        n,
        w,
        -2.0,
        left,
        right.count(),
        once,
        |a, b, left| {
            let (rows, cols) = (a * MR..n.min(a * MR + MR), b * NR..n.min(b * NR + NR));
            let mut acc: Tile = [[0.0; NR]; MR];
            for (i, row) in rows.clone().zip(&mut acc) {
                row[..cols.len()].copy_from_slice(&cross[i * n + cols.start..i * n + cols.end]);
            }
            kernel::<true>(left, right.panel(b), &mut acc);
            for (i, row) in rows.zip(&acc) {
                for (j, &v) in cols.clone().zip(row) {
                    if !once {
                        cross[i * n + j] = v;
                    } else if j >= i {
                        cross[i * n + j] = v;
                        cross[j * n + i] = v;
                    }
                }
            }
        },
    );
}

/// Squared distance `‖a − b‖²` through the Gram identity
/// `g_a + g_b − 2·aᵀb`, with the cross term accumulated in ascending-`k`
/// FMA order — **the exact rounding sequence of the packed tile**, so
/// the value equals what any tile/thread layout of
/// [`cross_sq_dist_map`] produces for the same pair. `g_a` / `g_b` must be `dot(a, a)` / `dot(b, b)` of the rows as
/// passed (callers that centre their data pass centred rows and norms).
///
/// The candidate-based search ([`crate::ann`]) ranks with it, so its
/// lists agree with the exact search's wherever the candidates cover it.
#[inline]
pub(crate) fn gram_sq_dist(a: &[f64], b: &[f64], g_a: f64, g_b: f64) -> f64 {
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

/// Gram-trick distances of `queries` rows against **all** `corpus`
/// rows, streamed to a per-query callback.
///
/// For each query row `q` (in order), `f(q, strip)` receives the strip
/// `strip[j] = −2·x_qᵀx_j + (g_q + g_j)` over every corpus row `j`, its
/// cross terms computed on the packed tile of [`CentredRows::p_nearest`]
/// — each `(q, j)` value is a pure function of the two rows, independent
/// of tiling, threading and of how queries are batched across calls,
/// and equal to the exact search's value for the same pair. This is
/// what makes an incrementally maintained graph equal the batch one bit
/// for bit. Queries are distributed over `threads` workers in
/// contiguous chunks, 32 rows at a time; results come back in
/// query order.
///
/// Callers own the centring policy: pass rows (and matching `q_norms` /
/// `c_norms` of squared row norms) translated by one [`CentredRows`]
/// translation so distances compare consistently across calls.
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
    let (n, d) = corpus.shape();
    if n == 0 {
        // Degenerate but well-formed: every query sees an empty strip.
        return (0..queries.rows()).map(|q| f(q, &[])).collect();
    }
    let right = Panels::<NR>::of_rows(corpus.as_slice(), n, d, 1.0);
    par_chunks_map(queries.rows(), threads, |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut strips = vec![0.0; TILE.min(range.len()) * n];
        for t0 in range.clone().step_by(TILE) {
            let rows = TILE.min(range.end - t0);
            let block = &queries.as_slice()[t0 * d..(t0 + rows) * d];
            let left = 0..rows.div_ceil(MR);
            for_each_tile(
                block,
                rows,
                d,
                -2.0,
                left,
                right.count(),
                false,
                |a, b, left| {
                    let mut acc: Tile = [[0.0; NR]; MR];
                    kernel::<true>(left, right.panel(b), &mut acc);
                    let cols = b * NR..n.min(b * NR + NR);
                    for (local, row) in (a * MR..rows.min(a * MR + MR)).zip(&acc) {
                        let strip = &mut strips[local * n..(local + 1) * n];
                        strip[cols.clone()].copy_from_slice(&row[..cols.len()]);
                    }
                },
            );
            for (local, strip) in strips.chunks_exact_mut(n).take(rows).enumerate() {
                let q = t0 + local;
                for (s, &gj) in strip.iter_mut().zip(c_norms) {
                    *s += q_norms[q] + gj;
                }
                out.push(f(q, strip));
            }
        }
        out
    })
}

/// `(dist, index)` strict total order: `f64::total_cmp` on the distance
/// (NaN greater than every real), ascending index on ties. Both selection
/// paths — [`insert_capped`] and `select_p_nearest` — pick the `p`
/// smallest elements of the same order, so their neighbour *sets* always
/// agree.
///
/// Public so candidate-based selections elsewhere (`mtrl-stream`'s
/// incremental maintenance, [`crate::ann`]'s probe unions) pick the same
/// `p` elements as the exact search whenever their candidate sets cover
/// the true neighbours.
#[inline]
pub fn dist_less(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == std::cmp::Ordering::Less
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
/// neighbour lists of [`knn_indices`] under `backend`,
/// weighted by `scheme` on the raw `f64` rows and "or"-symmetrised
/// ([`graph_from_neighbours`]).
///
/// `data` holds one object per row. The output is a symmetric nonnegative
/// sparse matrix with zero diagonal, bit-identical for every pool size.
/// With obs on, every backend records `graph.pnn_build` over
/// `graph.index_build` (approximate backends only), `graph.knn_search`
/// and `graph.weights`.
pub fn pnn_graph(data: &Mat, p: usize, scheme: WeightScheme, backend: &GraphBackend) -> Csr {
    pnn_graph_with_threads(data, p, scheme, backend, all_pairs_threads(data))
}

/// [`pnn_graph`] on an explicit worker count.
fn pnn_graph_with_threads(
    data: &Mat,
    p: usize,
    scheme: WeightScheme,
    backend: &GraphBackend,
    threads: usize,
) -> Csr {
    let _span = mtrl_obs::span!("graph.pnn_build");
    let neighbours = knn_search(data, p, backend, threads);
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
/// entered the list. The one selection of [`CentredRows::p_nearest`] and
/// of incremental maintenance (`mtrl-stream`'s `DynamicGraph`), so their
/// lists match. Expected insertions over a scan are `O(p log n)`, so
/// almost every candidate costs the one compare of the fast path.
pub fn insert_capped(list: &mut Vec<(f64, usize)>, cand: (f64, usize), p: usize) -> bool {
    if p == 0 {
        return false;
    }
    if list.len() >= p {
        let worst = *list.last().expect("p > 0");
        // Fast path: strictly worse than the current cut (false for
        // NaN, which then loses in dist_less below).
        if cand.0 > worst.0 || !dist_less(cand, worst) {
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
    use proptest::prelude::*;

    const EXACT: GraphBackend = GraphBackend::Exact;

    /// The exact f64 search through the public entry.
    fn knn(data: &Mat, p: usize) -> Vec<Vec<usize>> {
        knn_indices(data, p, &EXACT)
    }

    /// The exact f64 search on an explicit worker count.
    fn knn_t(data: &Mat, p: usize, threads: usize) -> Vec<Vec<usize>> {
        knn_exact(data, p, threads)
    }

    /// Lists with each distance as its bits, for exact comparison.
    fn bits(lists: Vec<Vec<(f64, usize)>>) -> Vec<Vec<(u64, usize)>> {
        lists
            .into_iter()
            .map(|l| l.into_iter().map(|(v, j)| (v.to_bits(), j)).collect())
            .collect()
    }

    /// The exact f64 graph through the public entry.
    fn pnn(data: &Mat, p: usize, scheme: WeightScheme) -> Csr {
        pnn_graph(data, p, scheme, &EXACT)
    }

    /// The exact f64 graph on an explicit worker count.
    fn pnn_t(data: &Mat, p: usize, scheme: WeightScheme, threads: usize) -> Csr {
        pnn_graph_with_threads(data, p, scheme, &EXACT, threads)
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
    fn knn_equals_pair_function_on_centred_rows() {
        let data = rand_uniform(83, 13, -3.0, 3.0, 23);
        let p = 6;
        let CentredRows {
            rows: centered,
            sq_norms: g,
            ..
        } = CentredRows::new(&data);
        let n = data.rows();
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
        assert_eq!(knn_t(&data, p, 1), expected);
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
        fn tile_search_equals_the_strip_kernel_bit_for_bit(
            n in 1usize..40,
            d in 1usize..12,
            p in 0usize..10,
            duplicate in any::<bool>(),
            nan in any::<bool>(),
            huge in any::<bool>(),
            seed in any::<u64>()
        ) {
            // Fewer rows than a tile, no more rows than `p`, exact ties
            // from a repeated row, a NaN row, and values whose doubling
            // overflows (both orientations computed): the tiled search's
            // lists, distances included, must equal the strip kernel's at
            // one and four workers, and the strips of the cross map too.
            let mut data = rand_uniform(n, d, -2.0, 2.0, seed);
            if duplicate && n > 2 {
                let first = data.row(0).to_vec();
                data.row_mut(n / 2).copy_from_slice(&first);
            }
            if nan && n > 1 {
                data[(n - 1, 0)] = f64::NAN;
            }
            if huge && n > 1 {
                data[(0, d - 1)] = f64::MAX;
                data[(1, d - 1)] = -f64::MAX;
            }
            let c = CentredRows::new(&data);
            let oracle = bits(crate::strip_oracle::p_nearest(&c.rows, &c.sq_norms, p, 1));
            for threads in [1, 4] {
                prop_assert_eq!(&bits(c.p_nearest_on(p, threads)), &oracle, "threads {}", threads);
            }
            if !huge {
                prop_assert_eq!(knn_t(&data, p, 4), knn_indices_brute_reference(&data, p));
            }
            let strip_bits = |_: usize, s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (x, g) = (&c.rows, &c.sq_norms);
            let expect = crate::strip_oracle::strip_map(x, g, x, g, 1, strip_bits);
            for threads in [1, 4] {
                prop_assert_eq!(&cross_sq_dist_map(x, g, x, g, threads, strip_bits), &expect);
            }
        }

        #[test]
        fn prefix_search_resumes_the_exact_search_bit_for_bit(
            n in 1usize..24,
            d in 0usize..19,
            p in 0usize..8,
            cuts in proptest::collection::vec(0usize..19, 0..4),
            duplicate in any::<bool>(),
            huge in any::<bool>(),
            seed in any::<u64>()
        ) {
            // Rows far from the origin (so centring matters), some of
            // them repeated (exact ties), folded at arbitrary column
            // cuts, then finished; every stage's lists must equal the
            // search over the columns seen so far. With `huge`, the last
            // column holds values whose doubling overflows, so the folds
            // run both orientations from there on.
            let mut data = rand_uniform(n, d, 50.0, 52.0, seed);
            if duplicate && n > 1 {
                let first = data.row(0).to_vec();
                data.row_mut(n - 1).copy_from_slice(&first);
            }
            if huge && n > 1 && d > 0 {
                data[(0, d - 1)] = f64::MAX;
                data[(1, d - 1)] = -f64::MAX;
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(d)).collect();
            cuts.sort_unstable();
            let mut search = PrefixSearch::new(n);
            for upto in cuts.into_iter().chain([d]) {
                search.fold(&data, upto);
                prop_assert_eq!(search.folded, upto);
                for width in upto..=d {
                    let seen = data.submatrix(0, 0, n, width);
                    prop_assert_eq!(
                        bits(search.p_nearest(&seen, p)),
                        bits(CentredRows::new(&seen).p_nearest(p))
                    );
                }
            }
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
