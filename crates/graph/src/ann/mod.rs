//! Approximate p-nearest-neighbour search: the random-projection forest
//! behind [`GraphBackend::RpForest`] and its recall oracle.
//!
//! The exact all-pairs Gram kernel ([`crate::knn`]) is O(n²) and the
//! hard cap on corpus size. A random-projection forest (O(n log n) per
//! tree, multi-probe descent; knobs `trees`, `leaf_size`, `probes`)
//! supplies candidates instead, so [`crate::knn_indices`],
//! [`crate::pnn_graph`] and the eval runner gain approximate mode
//! through the [`GraphBackend`] config enum rather than new call sites.
//! The forest is built per search; `mtrl-stream`'s incrementally
//! maintained graphs stay exact.
//!
//! # The bit-exactness contract
//!
//! The index only *generates candidates*; distances and selection
//! always go through the exact kernel's primitives:
//!
//! * rows are centred with [`crate::CentredRows`] — the same
//!   transformation the exact search applies;
//! * candidate distances come from `knn::gram_sq_dist`, whose
//!   ascending-k FMA chain is bit-identical to the blocked tile kernel;
//! * the `p` nearest are selected under [`crate::dist_less`]'s strict
//!   total order.
//!
//! Selection under a total order is independent of candidate order, so
//! whenever the candidate set *covers* the true `p` nearest the output
//! list equals the exact list bit for bit — in particular when the
//! forest probes every leaf — for every thread count. The exhaustive
//! proptests below pin that.
//!
//! # The correctness oracle
//!
//! [`sampled_recall`] measures recall@p against the exact kernel on a
//! seeded row sample; the committed `RECALL_quick.json` floor is
//! enforced by CI (`recall_gate`), because a fast graph with silently
//! degraded recall would poison every manifold downstream.

mod forest;
mod recall;

use forest::RpForestIndex;
pub use recall::{sampled_recall, RecallProbe, RecallResult};

use crate::knn::{gram_sq_dist, gram_sq_dist_x4, select_p_nearest, CentredRows};
use mtrl_linalg::par::par_chunks_map;
use mtrl_linalg::Mat;

/// Random-projection tree forest parameters.
///
/// Each of `trees` trees recursively splits the data at the median of a
/// random projection until nodes hold at most `leaf_size` rows. A query
/// descends each tree best-first, visiting its `probes` nearest leaves
/// (by accumulated split-margin penalty); the candidate set is the
/// union over trees. `probes` at or above the leaf count of every tree
/// makes the search exhaustive — and therefore bit-identical to the
/// exact kernel (see the module docs for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpForestParams {
    /// Number of independent trees (more trees → higher recall).
    pub trees: usize,
    /// Maximum rows per leaf (larger leaves → higher recall, slower).
    pub leaf_size: usize,
    /// Leaves visited per tree per query (multi-probe descent).
    pub probes: usize,
    /// Seed for the random projection directions.
    pub seed: u64,
}

impl Default for RpForestParams {
    fn default() -> Self {
        RpForestParams {
            trees: 5,
            leaf_size: 40,
            probes: 2,
            seed: 0x00A7_74EE,
        }
    }
}

/// Which neighbour-search kernel builds the pNN graph — the one config
/// enum `rhchme`'s `RhchmeConfig`, the pipeline params and the eval
/// runner carry, so switching a fit from the exact O(n²) kernel to the
/// approximate index is a configuration change, never a new call site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GraphBackend {
    /// The exact blocked Gram kernel ([`crate::knn`]). O(n²) but the
    /// ground truth the approximate backend is measured against.
    #[default]
    Exact,
    /// Random-projection tree forest with multi-probe descent.
    RpForest(RpForestParams),
}

impl GraphBackend {
    /// Whether this is the exact kernel (no index, no recall loss).
    pub fn is_exact(&self) -> bool {
        matches!(self, GraphBackend::Exact)
    }

    /// Short stable key for report/bench entry names.
    pub fn key(&self) -> &'static str {
        match self {
            GraphBackend::Exact => "exact",
            GraphBackend::RpForest(_) => "rp_forest",
        }
    }
}

/// Reusable per-worker workspace of [`select_from_candidates`]: the
/// distance buffer plus an epoch-stamped visited array that dedups a
/// candidate list in O(len) without sorting it. One instance per
/// worker/loop; reuse across queries is what makes the stamp cheap.
#[derive(Debug, Default, Clone)]
struct QueryScratch {
    dists: Vec<(f64, usize)>,
    seen: Vec<u32>,
    epoch: u32,
}

impl QueryScratch {
    /// Start a query over ids `< n`: grow the stamp array as needed and
    /// open a fresh epoch (clearing stamps on the rare u32 wrap).
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }
}

/// Exact-kernel distance + total-order selection over a candidate set:
/// the shared back half of every approximate query. `cands` is deduped
/// in place (first occurrence kept — selection under the total order is
/// independent of candidate order, so this changes nothing downstream);
/// the query's own id is skipped. Distances run four candidates at a
/// time through `gram_sq_dist_x4`, whose lanes are bit-equal to the
/// scalar [`gram_sq_dist`] chain. Returns the index-sorted neighbour
/// list, at most `p` long.
fn select_from_candidates(
    centred: &CentredRows,
    i: usize,
    cands: &mut Vec<usize>,
    p: usize,
    scratch: &mut QueryScratch,
) -> Vec<usize> {
    let (centered, sq_norms) = (&centred.rows, &centred.sq_norms);
    scratch.begin(centered.rows());
    let (seen, epoch) = (&mut scratch.seen, scratch.epoch);
    cands.retain(|&j| {
        if j == i || seen[j] == epoch {
            return false;
        }
        seen[j] = epoch;
        true
    });
    let dists = &mut scratch.dists;
    dists.clear();
    let xi = centered.row(i);
    let gi = sq_norms[i];
    let mut quads = cands.chunks_exact(4);
    for quad in &mut quads {
        let [j0, j1, j2, j3] = [quad[0], quad[1], quad[2], quad[3]];
        let d4 = gram_sq_dist_x4(
            xi,
            [
                centered.row(j0),
                centered.row(j1),
                centered.row(j2),
                centered.row(j3),
            ],
            gi,
            [sq_norms[j0], sq_norms[j1], sq_norms[j2], sq_norms[j3]],
        );
        dists.extend_from_slice(&[(d4[0], j0), (d4[1], j1), (d4[2], j2), (d4[3], j3)]);
    }
    for &j in quads.remainder() {
        dists.push((gram_sq_dist(xi, centered.row(j), gi, sq_norms[j]), j));
    }
    select_p_nearest(dists, p)
}

/// Neighbour lists of every row of `data` from a freshly built forest,
/// on `threads` workers, timed as `graph.index_build` then
/// `graph.knn_search`. Output is bit-identical for every `threads`
/// value (candidate generation and selection are pure per-row
/// functions).
pub(crate) fn knn_rp_forest(
    data: &Mat,
    p: usize,
    params: &RpForestParams,
    threads: usize,
) -> Vec<Vec<usize>> {
    let n = data.rows();
    let (centred, index) = {
        let _span = mtrl_obs::span!("graph.index_build");
        let centred = CentredRows::new(data);
        let ids: Vec<usize> = (0..n).collect();
        let index = RpForestIndex::build(&centred.rows, &ids, params);
        (centred, index)
    };
    let _span = mtrl_obs::span!("graph.knn_search");
    par_chunks_map(n, threads, |range| {
        let mut cands = Vec::new();
        let mut scratch = QueryScratch::default();
        range
            .map(|i| {
                cands.clear();
                index.candidates_into(centred.rows.row(i), &mut cands);
                select_from_candidates(&centred, i, &mut cands, p, &mut scratch)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    //! rp-forest ↔ exact equivalence. With every leaf probed, the
    //! candidate set covers the whole corpus, and because distances and
    //! selection go through the exact kernel's primitives the neighbour
    //! lists (and the assembled graph) must reproduce the exact search
    //! **bit for bit**, for every thread count 1–4.

    use super::*;
    use crate::{knn_indices, pnn_graph, WeightScheme};
    use mtrl_linalg::random::{rand_normal, rand_uniform};
    use proptest::prelude::*;

    fn exhaustive_forest(seed: u64) -> RpForestParams {
        RpForestParams {
            trees: 1 + (seed % 4) as usize,
            leaf_size: 1 + (seed % 13) as usize,
            // Probe count ≥ the leaf count of any tree: exhaustive.
            probes: usize::MAX,
            seed,
        }
    }

    #[test]
    fn default_is_exact() {
        assert!(GraphBackend::default().is_exact());
        assert!(!GraphBackend::RpForest(RpForestParams::default()).is_exact());
        assert_ne!(
            GraphBackend::Exact.key(),
            GraphBackend::RpForest(RpForestParams::default()).key()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn exhaustive_backends_match_exact_lists_bitwise(
            seed in any::<u64>(),
            n in 2usize..70,
            d in 1usize..9,
            p in 1usize..8,
        ) {
            let data = rand_uniform(n, d, -1.0, 1.0, seed);
            let params = exhaustive_forest(seed);
            let exact = knn_indices(&data, p, &GraphBackend::Exact);
            for threads in 1..=4 {
                let approx = knn_rp_forest(&data, p, &params, threads);
                prop_assert_eq!(&approx, &exact, "threads {}", threads);
            }
        }

        #[test]
        fn exhaustive_backends_match_exact_graph(
            seed in any::<u64>(),
            n in 2usize..50,
            d in 1usize..7,
            p in 1usize..6,
        ) {
            // Clustered data with exact duplicates sprinkled in: the tie
            // cases where a wrong selection order would diverge first.
            let mut base = rand_normal(n, d, 0.0, 1.0, seed);
            if n >= 4 {
                let dup: Vec<f64> = base.row(0).to_vec();
                base.row_mut(n / 2).copy_from_slice(&dup);
            }
            let forest = GraphBackend::RpForest(exhaustive_forest(seed ^ 0xABCD));
            for scheme in [
                WeightScheme::Binary,
                WeightScheme::HeatKernel { sigma: -1.0 },
                WeightScheme::Cosine,
            ] {
                let exact = pnn_graph(&base, p, scheme, &GraphBackend::Exact);
                let approx = pnn_graph(&base, p, scheme, &forest);
                prop_assert_eq!(&approx, &exact, "{:?}", scheme);
            }
        }

        #[test]
        fn non_exhaustive_lists_are_valid_and_thread_invariant(
            seed in any::<u64>(),
            n in 8usize..80,
            p in 1usize..6,
        ) {
            let data = rand_uniform(n, 5, -1.0, 1.0, seed);
            let params = RpForestParams { trees: 2, leaf_size: 4, probes: 1, seed };
            let lists = knn_rp_forest(&data, p, &params, 1);
            prop_assert_eq!(lists.len(), n);
            for (i, list) in lists.iter().enumerate() {
                prop_assert!(list.len() <= p);
                prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted list {}", i);
                prop_assert!(!list.contains(&i), "self-neighbour {}", i);
                prop_assert!(list.iter().all(|&j| j < n));
            }
            for threads in 2..=4 {
                prop_assert_eq!(
                    &knn_rp_forest(&data, p, &params, threads), &lists,
                    "threads {}", threads
                );
            }
        }
    }

    #[test]
    fn smoke_duplicate_row_equivalence() {
        let mut data = rand_uniform(12, 3, -1.0, 1.0, 99);
        let dup: Vec<f64> = data.row(1).to_vec();
        data.row_mut(7).copy_from_slice(&dup);
        let exact = knn_indices(&data, 3, &GraphBackend::Exact);
        let params = exhaustive_forest(99);
        assert_eq!(knn_rp_forest(&data, 3, &params, 2), exact);
    }
}
