//! Random-projection tree forest with multi-probe descent.
//!
//! Each tree recursively splits its rows at (the midpoint straddling)
//! the median of a random-direction projection until nodes hold at most
//! `leaf_size` rows. Nearby points land in the same leaf with high
//! probability; a forest of independently seeded trees plus best-first
//! multi-probing (descending into the `probes` leaves with the smallest
//! accumulated split margins) pushes recall up without scanning the
//! corpus.
//!
//! Membership is decided by the *routing predicate* (`proj < threshold`)
//! at build time, never by sorted-half assignment, so a query descends
//! to exactly the leaf its own row was built into. The index is built
//! once per search and never updated.

use super::RpForestParams;
use mtrl_linalg::vecops::dot;
use mtrl_linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// Unit-ish random projection direction (d components).
        dir: Vec<f64>,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        /// Global row ids, kept sorted for deterministic candidate order.
        members: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Root is node 0 (the tree always has at least one node).
    const ROOT: usize = 0;

    fn build(rows: &Mat, ids: &[usize], leaf_size: usize, rng: &mut StdRng) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let positions: Vec<usize> = (0..rows.rows()).collect();
        tree.build_node(rows, ids, positions, leaf_size, rng);
        tree
    }

    /// Build the subtree over `positions` (row indices into `rows`) and
    /// return its node id. Recursion depth is O(log n) in expectation;
    /// degenerate projections fall back to a leaf rather than recurse.
    fn build_node(
        &mut self,
        rows: &Mat,
        ids: &[usize],
        positions: Vec<usize>,
        leaf_size: usize,
        rng: &mut StdRng,
    ) -> usize {
        if positions.len() <= leaf_size.max(1) {
            return self.push_leaf(ids, positions);
        }
        let d = rows.cols();
        // Gaussian direction via Box-Muller on the tree's own rng; the
        // scale is irrelevant (only the induced order matters).
        let dir: Vec<f64> = (0..d)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        let mut projs: Vec<f64> = positions.iter().map(|&p| dot(&dir, rows.row(p))).collect();
        let mut sorted = projs.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let threshold = 0.5 * (sorted[mid - 1] + sorted[mid]);
        // Partition by the routing predicate itself so later inserts
        // land where batch build put their neighbours. Non-finite
        // projections (NaN features) route right, like `total_cmp`
        // sorting them last.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (k, &pos) in positions.iter().enumerate() {
            if projs[k] < threshold {
                left.push(pos);
            } else {
                right.push(pos);
            }
        }
        if left.is_empty() || right.is_empty() {
            // Degenerate split (duplicate/collinear points): stop here.
            return self.push_leaf(ids, positions);
        }
        projs.clear();
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf {
            members: Vec::new(),
        }); // placeholder
        let left = self.build_node(rows, ids, left, leaf_size, rng);
        let right = self.build_node(rows, ids, right, leaf_size, rng);
        self.nodes[node] = Node::Internal {
            dir,
            threshold,
            left,
            right,
        };
        node
    }

    fn push_leaf(&mut self, ids: &[usize], positions: Vec<usize>) -> usize {
        let mut members: Vec<usize> = positions.into_iter().map(|p| ids[p]).collect();
        members.sort_unstable();
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf { members });
        node
    }

    /// Best-first multi-probe: visit up to `probes` leaves in order of
    /// accumulated margin penalty, appending their members to `out`.
    /// Ties in penalty break towards the earlier-queued branch, so the
    /// visit order is deterministic.
    fn probe(&self, row: &[f64], probes: usize, out: &mut Vec<usize>) {
        let mut frontier: Vec<(f64, usize)> = vec![(0.0, Self::ROOT)];
        let mut visited = 0usize;
        while visited < probes.max(1) && !frontier.is_empty() {
            // Pop the smallest penalty; first-queued wins ties.
            let mut best = 0;
            for (k, cand) in frontier.iter().enumerate().skip(1) {
                if cand.0.total_cmp(&frontier[best].0) == std::cmp::Ordering::Less {
                    best = k;
                }
            }
            let (penalty, mut node) = frontier.remove(best);
            loop {
                match &self.nodes[node] {
                    Node::Leaf { members } => {
                        out.extend_from_slice(members);
                        visited += 1;
                        break;
                    }
                    Node::Internal {
                        dir,
                        threshold,
                        left,
                        right,
                    } => {
                        let proj = dot(dir, row);
                        let (main, alt) = if proj < *threshold {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        let margin = (proj - threshold).abs();
                        frontier.push((penalty + margin, alt));
                        node = main;
                    }
                }
            }
        }
    }
}

/// A forest of random-projection trees over centred rows.
///
/// The index stores global row ids, never rows: callers keep the
/// (centred) feature matrix and compute distances themselves through
/// the exact kernel primitives, so the index can only *miss*
/// neighbours, never change a distance. Every `row` argument must be
/// centred by the same translation as the rows the index was built
/// from ([`crate::CentredRows`]).
#[derive(Debug, Clone)]
pub(crate) struct RpForestIndex {
    params: RpForestParams,
    trees: Vec<Tree>,
}

impl RpForestIndex {
    /// Build `params.trees` independently seeded trees over `rows`,
    /// where row `k` carries global id `ids[k]`.
    ///
    /// # Panics
    /// Panics if `ids.len() != rows.rows()`.
    pub(crate) fn build(rows: &Mat, ids: &[usize], params: &RpForestParams) -> RpForestIndex {
        assert_eq!(ids.len(), rows.rows(), "one id per row");
        let trees = (0..params.trees.max(1))
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(
                    params.seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64 + 1)),
                );
                Tree::build(rows, ids, params.leaf_size, &mut rng)
            })
            .collect();
        RpForestIndex {
            params: *params,
            trees,
        }
    }

    /// Append candidate ids for a query row: the members of the
    /// `probes` best leaves of every tree. May contain duplicates and
    /// the query's own id; callers dedup and filter.
    pub(crate) fn candidates_into(&self, row: &[f64], out: &mut Vec<usize>) {
        for tree in &self.trees {
            tree.probe(row, self.params.probes, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::rand_uniform;

    fn identity_ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn exhaustive_probes_cover_everything() {
        let data = rand_uniform(120, 6, -1.0, 1.0, 5);
        let forest = RpForestIndex::build(
            &data,
            &identity_ids(120),
            &RpForestParams {
                trees: 3,
                leaf_size: 8,
                probes: usize::MAX,
                seed: 1,
            },
        );
        let mut out = Vec::new();
        forest.candidates_into(data.row(7), &mut out);
        out.sort_unstable();
        out.dedup();
        assert_eq!(out, identity_ids(120));
    }

    #[test]
    fn single_probe_lands_in_own_leaf() {
        let data = rand_uniform(200, 4, -1.0, 1.0, 6);
        let forest = RpForestIndex::build(
            &data,
            &identity_ids(200),
            &RpForestParams {
                trees: 4,
                leaf_size: 16,
                probes: 1,
                seed: 2,
            },
        );
        for i in [0usize, 57, 199] {
            let mut out = Vec::new();
            forest.candidates_into(data.row(i), &mut out);
            assert!(out.contains(&i), "row {i} missing from its own leaves");
        }
    }

    #[test]
    fn duplicate_rows_build_without_recursion_blowup() {
        let data = Mat::zeros(100, 3);
        let forest = RpForestIndex::build(
            &data,
            &identity_ids(100),
            &RpForestParams {
                trees: 2,
                leaf_size: 4,
                probes: 1,
                seed: 4,
            },
        );
        let mut out = Vec::new();
        forest.candidates_into(data.row(0), &mut out);
        out.sort_unstable();
        out.dedup();
        // All-identical rows cannot be split: one leaf holds everything.
        assert_eq!(out.len(), 100);
    }
}
