//! Incremental pNN graph maintenance.
//!
//! The batch pipeline rebuilds every pNN graph from scratch — `O(n² d)`
//! distance work — whenever the corpus changes. For a stream of arriving
//! objects that is the dominant cost: a batch of `b` new rows only
//! *needs* `O(b · n · d)` work (each new row against the corpus), plus
//! reverse-edge patches where a new row displaces an old row's current
//! p-th neighbour. [`DynamicGraph`] maintains exactly that:
//!
//! * per-row neighbour lists `(distance, index)` under the same total
//!   order as the batch search (`f64::total_cmp`, index tie-break);
//! * the initial batch and every full rebuild run the batch search
//!   itself ([`mtrl_graph::CentredRows::p_nearest`]);
//! * **insertion** appends the new rows in place (amortised growth, no
//!   copy of the corpus per batch) and runs the packed-tile Gram strips
//!   ([`mtrl_graph::cross_sq_dist_map`]) of the new rows against the
//!   current corpus, selects each new row's `p` nearest, and patches
//!   reverse edges on existing rows — every pair is compared exactly
//!   once (when its later row arrives), so the maintained lists equal
//!   the true p-nearest lists of the full corpus *regardless of how the
//!   stream was batched*;
//! * a **rebuild-threshold policy**: once the patched fraction since the
//!   last full build exceeds a knob, the next insert falls back to a
//!   full rebuild (fresh centring, all lists recomputed) rather than
//!   letting a heavily rewritten graph drift from its batch-built
//!   equivalent.
//!
//! Distances are computed on rows translated by the column means of the
//! *initial* batch (fixed for the graph's lifetime, refreshed on
//! rebuild): Euclidean distances are translation invariant, the Gram
//! expansion needs the origin near the data for stability (see
//! [`mtrl_graph::CentredRows`]), and a *fixed* centre makes every stored
//! distance a pure function of the two rows — comparable across batches.
//!
//! Exported graphs go through [`mtrl_graph::graph_from_neighbours`], the
//! exact weighting + "or"-symmetrisation code of the batch
//! [`mtrl_graph::pnn_graph`], so a `DynamicGraph` whose lists match the
//! batch kNN produces a bit-identical `Csr` (the cross-crate proptest in
//! `tests/integration_stream.rs` fuzzes this over random batch splits
//! and thread counts).
//!
//! The graph is exact only: a session configured with another
//! neighbour-search backend is refused (`StreamSession::new`), so every
//! maintained list is the true p-nearest list under the exact kernel.

use mtrl_graph::{
    cross_sq_dist_map, dist_less, graph_from_neighbours, insert_capped, laplacian_csr, CentredRows,
    LaplacianKind, WeightScheme,
};
use mtrl_linalg::par::threads_for;
use mtrl_linalg::Mat;
use mtrl_sparse::Csr;

/// Tuning knobs of a [`DynamicGraph`].
#[derive(Debug, Clone)]
pub struct DynamicGraphConfig {
    /// Neighbours per object (the paper's `p`, default 5). `0` keeps
    /// every list empty, like the batch [`mtrl_graph::pnn_graph`].
    pub p: usize,
    /// Edge weighting of the exported graph (Eq. 3).
    pub scheme: WeightScheme,
    /// Patched-fraction knob of the rebuild policy: when more than this
    /// fraction of rows has been patched since the last full build (see
    /// [`DynamicGraph::patched_fraction`]), the next insert triggers a
    /// full rebuild. `1.0` disables automatic rebuilds (the fraction
    /// never exceeds 1).
    pub rebuild_threshold: f64,
}

impl Default for DynamicGraphConfig {
    fn default() -> Self {
        DynamicGraphConfig {
            p: 5,
            scheme: WeightScheme::Cosine,
            rebuild_threshold: 0.5,
        }
    }
}

/// What one [`DynamicGraph::insert_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// Rows inserted.
    pub inserted: usize,
    /// Existing rows whose neighbour list gained at least one new edge.
    pub patched_rows: usize,
    /// Whether the rebuild threshold tripped and a full rebuild ran.
    pub rebuilt: bool,
}

/// Incrementally maintained pNN graph over a growing set of feature
/// rows. See the module docs for the maintenance contract.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    cfg: DynamicGraphConfig,
    /// Raw feature rows (edge weights are computed on them).
    features: Mat,
    /// The rows under the fixed centring, with their squared norms.
    centred: CentredRows,
    /// Per-row neighbour lists, `dist_less`-sorted.
    neigh: Vec<Vec<(f64, usize)>>,
    /// Rows patched since the last full build.
    patched: Vec<bool>,
    patched_rows: usize,
}

impl DynamicGraph {
    /// Build from an initial non-empty batch of feature rows (one object
    /// per row). Centring means are fixed from this batch.
    ///
    /// # Panics
    /// Panics if `initial` has no rows or `cfg.rebuild_threshold` lies
    /// outside `[0, 1]`.
    pub fn new(initial: &Mat, cfg: DynamicGraphConfig) -> Self {
        assert!(initial.rows() > 0, "DynamicGraph needs an initial batch");
        assert!(
            (0.0..=1.0).contains(&cfg.rebuild_threshold),
            "rebuild_threshold must be in [0, 1]"
        );
        let mut g = DynamicGraph {
            cfg,
            features: initial.clone(),
            centred: CentredRows::new(initial),
            neigh: Vec::new(),
            patched: Vec::new(),
            patched_rows: 0,
        };
        g.reset_lists(g.centred.p_nearest(g.cfg.p));
        g
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Fraction of rows patched since the last full build (always in
    /// `[0, 1]`, so a threshold of `1.0` genuinely disables automatic
    /// rebuilds) — what the rebuild policy compares against its
    /// threshold.
    pub fn patched_fraction(&self) -> f64 {
        self.patched_rows as f64 / self.features.rows() as f64
    }

    /// Index-sorted neighbour list of row `i`.
    pub(crate) fn neighbours(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.neigh[i].iter().map(|&(_, j)| j).collect();
        out.sort_unstable();
        out
    }

    /// Insert a batch of new rows; they occupy the last `rows.rows()`
    /// row indices.
    ///
    /// Cost: `O(b · n · d)` Gram-strip distance work plus `O(n)`
    /// reverse-edge checks per new row, and the rows appended in place —
    /// no `O(n² d)` rebuild and no `O(n · d)` copy. If the
    /// patched fraction crosses the rebuild threshold afterwards, a full
    /// rebuild runs before returning (reported in the result).
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn insert_batch(&mut self, rows: &Mat) -> InsertReport {
        let patched_before = self.patched_rows;
        self.insert_core(rows);
        let patched_rows = self.patched_rows - patched_before;
        let rebuilt = self.patched_fraction() > self.cfg.rebuild_threshold;
        if rebuilt {
            self.rebuild();
        }
        InsertReport {
            inserted: rows.rows(),
            patched_rows,
            rebuilt,
        }
    }

    fn insert_core(&mut self, rows: &Mat) {
        assert_eq!(rows.cols(), self.dim(), "insert_batch: dimension mismatch");
        let b = rows.rows();
        if b == 0 {
            return;
        }
        let base = self.features.rows();
        // Append raw + centred rows and their norms in place.
        self.features.append_rows(rows).expect("same width");
        let new = CentredRows::with_means(rows, self.centred.means.clone());
        self.centred
            .rows
            .append_rows(&new.rows)
            .expect("same width");
        self.centred.sq_norms.extend_from_slice(&new.sq_norms);
        self.neigh.extend(std::iter::repeat_with(Vec::new).take(b));
        self.patched.extend(std::iter::repeat_n(false, b));

        let p = self.cfg.p;
        let n_total = self.features.rows();
        let threads = threads_for(b * n_total * self.dim());
        // Parallel phase: one Gram strip per new row against the whole
        // corpus (old rows and the new batch itself). Per strip: the new
        // row's own top-p selection, plus loosely filtered reverse
        // candidates (old rows the new row might improve); `neigh` is
        // only read here.
        let neigh = &self.neigh;
        #[allow(clippy::type_complexity)]
        let per_query: Vec<(Vec<(f64, usize)>, Vec<(usize, f64)>)> = cross_sq_dist_map(
            &new.rows,
            &new.sq_norms,
            &self.centred.rows,
            &self.centred.sq_norms,
            threads,
            |q, strip| {
                let me = base + q;
                let mut own: Vec<(f64, usize)> = Vec::with_capacity(p + 1);
                let mut reverse: Vec<(usize, f64)> = Vec::new();
                for (j, &d) in strip.iter().enumerate() {
                    if j == me {
                        continue;
                    }
                    insert_capped(&mut own, (d, j), p);
                    // Old rows only: in-batch pairs are covered by each
                    // query's own selection. The pre-batch threshold is
                    // a superset filter of the final one, so nothing
                    // that belongs in the final list is dropped here.
                    if j < base
                        && (neigh[j].len() < p
                            || neigh[j]
                                .last()
                                .is_some_and(|&worst| dist_less((d, me), worst)))
                    {
                        reverse.push((j, d));
                    }
                }
                (own, reverse)
            },
        );
        // Serial merge in query order — deterministic for any thread
        // count and batch split.
        for (q, (own, reverse)) in per_query.into_iter().enumerate() {
            self.neigh[base + q] = own;
            for (j, d) in reverse {
                if insert_capped(&mut self.neigh[j], (d, base + q), p) {
                    self.mark_patched(j);
                }
            }
        }
    }

    /// Count row `j` as patched since the last full build.
    fn mark_patched(&mut self, j: usize) {
        if !self.patched[j] {
            self.patched[j] = true;
            self.patched_rows += 1;
        }
    }

    /// Install freshly built lists and clear the patch bookkeeping.
    fn reset_lists(&mut self, lists: Vec<Vec<(f64, usize)>>) {
        self.patched = vec![false; lists.len()];
        self.patched_rows = 0;
        self.neigh = lists;
    }

    /// Full rebuild: re-centre on the column means of every row and
    /// recompute every neighbour list with the batch search.
    pub fn rebuild(&mut self) {
        self.centred = CentredRows::new(&self.features);
        self.reset_lists(self.centred.p_nearest(self.cfg.p));
    }

    /// Export the symmetric weighted pNN graph (Eq. 3). Weighting and
    /// "or"-symmetrisation are shared with the batch
    /// [`mtrl_graph::pnn_graph`] ([`graph_from_neighbours`]), so equal
    /// neighbour structure means an equal `Csr`. `O(nnz · d)` — no
    /// distance recomputation.
    pub fn graph(&self) -> Csr {
        let lists: Vec<Vec<usize>> = (0..self.neigh.len()).map(|i| self.neighbours(i)).collect();
        let threads = threads_for(self.neigh.len() * self.cfg.p.max(1) * self.dim());
        graph_from_neighbours(&self.features, &lists, self.cfg.scheme, threads)
    }

    /// The graph's Laplacian, refreshed from the incrementally
    /// maintained adjacency in `O(nnz · d)` — the streaming replacement
    /// for rebuild-then-`laplacian_csr` (`O(n² d)`).
    pub fn laplacian(&self, kind: LaplacianKind) -> Csr {
        laplacian_csr(&self.graph(), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_graph::{knn_indices, pnn_graph, GraphBackend};
    use mtrl_linalg::random::rand_uniform;

    fn graph_cfg(p: usize) -> DynamicGraphConfig {
        DynamicGraphConfig {
            p,
            scheme: WeightScheme::Cosine,
            rebuild_threshold: 1.0, // manual control in tests
        }
    }

    #[test]
    fn single_batch_matches_batch_pnn() {
        // Built in one batch, the centring means equal the batch
        // kernel's, so the exported graph is identical.
        let data = rand_uniform(60, 7, -1.0, 1.0, 100);
        let g = DynamicGraph::new(&data, graph_cfg(4));
        assert_eq!(
            g.graph(),
            pnn_graph(&data, 4, WeightScheme::Cosine, &GraphBackend::Exact)
        );
        let nn = knn_indices(&data, 4, &GraphBackend::Exact);
        for (i, expect) in nn.iter().enumerate() {
            assert_eq!(&g.neighbours(i), expect, "row {i}");
        }
    }

    #[test]
    fn incremental_inserts_match_batch_pnn() {
        let data = rand_uniform(80, 6, -1.0, 1.0, 101);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 30, 6), graph_cfg(5));
        let mut at = 30;
        for step in [1usize, 7, 12, 30] {
            let report = g.insert_batch(&data.submatrix(at, 0, step, 6));
            assert_eq!(report.inserted, step);
            assert!(!report.rebuilt);
            at += step;
        }
        assert_eq!(at, 80);
        assert_eq!(g.features.rows(), 80);
        assert_eq!(
            g.graph(),
            pnn_graph(&data, 5, WeightScheme::Cosine, &GraphBackend::Exact)
        );
    }

    #[test]
    fn insertion_patches_reverse_edges() {
        // Two far clusters; a new point lands on top of cluster A, so A
        // members must adopt it.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![i as f64 * 0.1, 0.0]);
            rows.push(vec![100.0 + i as f64 * 0.1, 0.0]);
        }
        let data = Mat::from_rows(&rows).unwrap();
        let mut g = DynamicGraph::new(&data, graph_cfg(3));
        let report = g.insert_batch(&Mat::from_rows(&[vec![0.15, 0.0]]).unwrap());
        assert_eq!(report.inserted, 1);
        assert!(report.patched_rows >= 3, "{report:?}");
        // The new row (index 10) neighbours only cluster-A members, and
        // several A members adopted it.
        for &j in &g.neighbours(10) {
            assert!(j % 2 == 0, "new row neighbours cluster B member {j}");
        }
        let adopters = (0..10).filter(|&i| g.neighbours(i).contains(&10)).count();
        assert!(adopters >= 3, "{adopters}");
    }

    #[test]
    fn rebuild_threshold_triggers() {
        let data = rand_uniform(30, 4, -1.0, 1.0, 103);
        let mut g = DynamicGraph::new(
            &data,
            DynamicGraphConfig {
                p: 3,
                scheme: WeightScheme::Cosine,
                rebuild_threshold: 0.0, // any patch trips it
            },
        );
        // A duplicate of row 0 patches its nearest neighbours → rebuild.
        let report = g.insert_batch(&data.submatrix(0, 0, 1, 4));
        assert!(report.rebuilt);
        assert_eq!(g.patched_fraction(), 0.0, "rebuild resets the counter");
        // After the rebuild the graph still matches the batch path on
        // the full 31-row corpus (fresh means = batch means).
        let mut full = data.clone();
        full.append_rows(&data.submatrix(0, 0, 1, 4)).unwrap();
        assert_eq!(
            g.graph(),
            pnn_graph(&full, 3, WeightScheme::Cosine, &GraphBackend::Exact)
        );
    }

    #[test]
    fn laplacian_matches_batch_construction() {
        let data = rand_uniform(50, 6, 0.0, 1.0, 104);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 35, 6), graph_cfg(5));
        g.insert_batch(&data.submatrix(35, 0, 15, 6));
        let w = pnn_graph(&data, 5, WeightScheme::Cosine, &GraphBackend::Exact);
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            assert_eq!(g.laplacian(kind), laplacian_csr(&w, kind), "{kind:?}");
        }
    }

    #[test]
    fn far_from_origin_insertions_stay_stable() {
        // The fixed centring keeps the Gram expansion stable for data
        // clustered far from the origin, batches included.
        let base = rand_uniform(40, 4, -1e-3, 1e-3, 105);
        let shifted = Mat::from_fn(40, 4, |i, j| 1.0e8 + base[(i, j)]);
        let mut g = DynamicGraph::new(&shifted.submatrix(0, 0, 25, 4), graph_cfg(4));
        g.insert_batch(&shifted.submatrix(25, 0, 15, 4));
        assert_eq!(
            g.graph(),
            pnn_graph(&shifted, 4, WeightScheme::Cosine, &GraphBackend::Exact)
        );
    }

    #[test]
    fn duplicate_rows_rebuild_equals_knn_indices() {
        // Every row has exact duplicates, so many distances tie at zero
        // (and others tie between copies) and the index tie-break alone
        // decides the lists: the exact rebuild must pick what the batch
        // search picks, distance bits included.
        let base = rand_uniform(7, 4, -1.0, 1.0, 109);
        let rows: Vec<Vec<f64>> = (0..28).map(|i| base.row(i % 7).to_vec()).collect();
        let data = Mat::from_rows(&rows).unwrap();
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 10, 4), graph_cfg(5));
        g.insert_batch(&data.submatrix(10, 0, 18, 4));
        let nn = knn_indices(&data, 5, &GraphBackend::Exact);
        let reference = pnn_graph(&data, 5, WeightScheme::Cosine, &GraphBackend::Exact);
        assert_eq!(g.graph(), reference, "incremental");
        g.rebuild();
        for (i, expect) in nn.iter().enumerate() {
            assert_eq!(&g.neighbours(i), expect, "row {i}");
        }
        assert_eq!(g.graph(), reference, "rebuilt");
    }

    #[test]
    fn batch_split_invariant() {
        // The same rows in different batch splits produce the same
        // graph: every pair distance is computed by the same pure
        // function whenever the later row arrives.
        let data = rand_uniform(55, 5, -1.0, 1.0, 106);
        let build = |splits: &[usize]| {
            let mut g = DynamicGraph::new(&data.submatrix(0, 0, splits[0], 5), graph_cfg(4));
            let mut at = splits[0];
            for &s in &splits[1..] {
                g.insert_batch(&data.submatrix(at, 0, s, 5));
                at += s;
            }
            assert_eq!(at, 55);
            g.graph()
        };
        let a = build(&[20, 35]);
        let b = build(&[20, 1, 1, 33]);
        let c = build(&[20, 17, 18]);
        // Same first batch → same centring → identical graphs.
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
