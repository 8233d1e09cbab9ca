//! Confusion (contingency) matrix between two labelings.

use std::collections::HashMap;

/// Contingency counts `n_jl` between true classes `j` and predicted
/// clusters `l`, with marginals — the shared substrate of every metric in
/// this crate.
#[derive(Debug, Clone)]
pub(crate) struct Confusion {
    counts: Vec<Vec<usize>>,
    class_sizes: Vec<usize>,
    cluster_sizes: Vec<usize>,
    total: usize,
}

impl Confusion {
    /// Build from parallel label slices. Labels may be arbitrary `usize`
    /// values; they are densified internally.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub(crate) fn new(truth: &[usize], pred: &[usize]) -> Self {
        assert_eq!(truth.len(), pred.len(), "label length mismatch");
        let t_map = densify(truth);
        let p_map = densify(pred);
        let mut counts = vec![vec![0usize; p_map.len()]; t_map.len()];
        for (&t, &p) in truth.iter().zip(pred) {
            counts[t_map[&t]][p_map[&p]] += 1;
        }
        let class_sizes: Vec<usize> = counts.iter().map(|row| row.iter().sum()).collect();
        let mut cluster_sizes = vec![0usize; p_map.len()];
        for row in &counts {
            for (acc, &v) in cluster_sizes.iter_mut().zip(row) {
                *acc += v;
            }
        }
        Confusion {
            counts,
            class_sizes,
            cluster_sizes,
            total: truth.len(),
        }
    }

    /// `n_jl`: objects in (dense) class `j` and (dense) cluster `l`.
    pub(crate) fn count(&self, j: usize, l: usize) -> usize {
        self.counts[j][l]
    }

    /// Per-class totals `n_j`.
    pub(crate) fn class_sizes(&self) -> &[usize] {
        &self.class_sizes
    }

    /// Per-cluster totals `n_l`.
    pub(crate) fn cluster_sizes(&self) -> &[usize] {
        &self.cluster_sizes
    }

    /// Total object count `n`.
    pub(crate) fn total(&self) -> usize {
        self.total
    }
}

/// Map arbitrary label values to dense `0..k` indices, in order of first
/// appearance.
fn densify(labels: &[usize]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    for &l in labels {
        let next = map.len();
        map.entry(l).or_insert(next);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_marginals() {
        let truth = vec![0, 0, 1, 1, 1];
        let pred = vec![7, 9, 9, 9, 7];
        let c = Confusion::new(&truth, &pred);
        assert_eq!(c.total(), 5);
        assert_eq!(c.class_sizes(), &[2, 3]);
        assert_eq!(c.cluster_sizes(), &[2, 3]); // 7 -> 0 (first seen), 9 -> 1
        assert_eq!(c.count(0, 0), 1); // class 0, cluster "7"
        assert_eq!(c.count(0, 1), 1);
        assert_eq!(c.count(1, 1), 2);
        assert_eq!(c.count(1, 0), 1);
    }

    #[test]
    fn sparse_label_values() {
        let truth = vec![100, 100, 5000];
        let pred = vec![1, 2, 2];
        let c = Confusion::new(&truth, &pred);
        assert_eq!(c.class_sizes().len(), 2);
        assert_eq!(c.cluster_sizes().len(), 2);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn empty_labels() {
        let c = Confusion::new(&[], &[]);
        assert_eq!(c.total(), 0);
        assert!(c.class_sizes().is_empty());
    }

    #[test]
    fn marginals_sum_to_total() {
        let truth = vec![0, 1, 2, 0, 1, 2, 1];
        let pred = vec![0, 0, 1, 1, 2, 2, 0];
        let c = Confusion::new(&truth, &pred);
        assert_eq!(c.class_sizes().iter().sum::<usize>(), c.total());
        assert_eq!(c.cluster_sizes().iter().sum::<usize>(), c.total());
    }
}
