//! Sparse co-association structure over base partitions.
//!
//! The classical evidence-accumulation matrix `C_ij = |{m : m(i) = m(j)}| / M`
//! is n×n dense; this module never materialises it. Instead each object
//! keeps only its `p` strongest co-cluster neighbours (count-descending,
//! index-ascending on ties), assembled straight into a [`Csr`] and then
//! max-symmetrised — the same sparsity contract as the pNN graphs, so the
//! PR-4 allocation oracle holds on the ensemble path.
//!
//! Determinism: rows are built with
//! [`mtrl_linalg::par::par_chunks_map`], which splices contiguous row
//! ranges back in order, and every per-row computation is a pure function
//! of the (order-insensitive) partition multiset — so the built matrix is
//! bit-identical across thread counts *and* across how partitions were
//! batched into the builder. The proptest suite pins both, and a unit
//! test sweeps thread counts on an input above the parallel threshold.

use mtrl_linalg::par::{par_chunks_map, threads_for};
use mtrl_sparse::Csr;

/// Incremental builder: feed base partitions (in any batching), then
/// [`CoAssocBuilder::build`].
#[derive(Debug, Clone)]
pub struct CoAssocBuilder {
    n: usize,
    partitions: Vec<Vec<usize>>,
}

impl CoAssocBuilder {
    /// A builder over `n` objects.
    pub fn new(n: usize) -> Self {
        CoAssocBuilder {
            n,
            partitions: Vec::new(),
        }
    }

    /// Add one base partition (a label per object).
    ///
    /// # Panics
    /// Panics if `labels.len() != n`.
    pub fn add_partition(&mut self, labels: &[usize]) {
        assert_eq!(
            labels.len(),
            self.n,
            "partition has {} labels for {} objects",
            labels.len(),
            self.n
        );
        self.partitions.push(labels.to_vec());
    }

    /// Build the sparse symmetric co-association matrix, keeping each
    /// object's `p` strongest co-cluster neighbours before
    /// symmetrisation. Entry values are co-clustering frequencies in
    /// `(0, 1]`.
    pub fn build(&self, p: usize) -> Csr {
        let n = self.n;
        let m = self.partitions.len();
        if m == 0 || p == 0 {
            return Csr::zeros(n, n);
        }
        // Bucket each partition's clusters once: cluster id -> members.
        let buckets: Vec<Vec<Vec<usize>>> = self
            .partitions
            .iter()
            .map(|labels| {
                let k = labels.iter().copied().max().unwrap_or(0) + 1;
                let mut b = vec![Vec::new(); k];
                for (i, &c) in labels.iter().enumerate() {
                    b[c].push(i);
                }
                b
            })
            .collect();
        let inv_m = 1.0 / m as f64;
        // Work: the co-cluster pairs the rows visit.
        let work = buckets.iter().flatten().map(|b| b.len() * b.len()).sum();
        let rows: Vec<(Vec<usize>, Vec<f64>)> = par_chunks_map(n, threads_for(work), |range| {
            let mut counts = CountScratch::new(n);
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                counts.begin();
                for (labels, bucket) in self.partitions.iter().zip(&buckets) {
                    for &j in &bucket[labels[i]] {
                        if j != i {
                            counts.bump(j);
                        }
                    }
                }
                // The p best under the total order (count desc, index
                // asc) are one set whatever order the candidates come in.
                let mut cand: Vec<(usize, u32)> = counts
                    .touched
                    .iter()
                    .map(|&j| (j, counts.count[j]))
                    .collect();
                let by_rank =
                    |a: &(usize, u32), b: &(usize, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
                if p < cand.len() {
                    cand.select_nth_unstable_by(p, by_rank);
                    cand.truncate(p);
                }
                cand.sort_unstable_by_key(|&(j, _)| j);
                let idx: Vec<usize> = cand.iter().map(|&(j, _)| j).collect();
                let vals: Vec<f64> = cand.iter().map(|&(_, c)| f64::from(c) * inv_m).collect();
                out.push((idx, vals));
            }
            out
        });
        Csr::from_sparse_rows(&rows, n).max_symmetrize()
    }
}

/// Per-row co-cluster counts over ids `< n` in dense arrays, reset in
/// O(1) per row by an epoch stamp (the same scheme as the candidate
/// dedup of `mtrl_graph::ann`): a count is live only where its stamp is
/// the current epoch.
struct CountScratch {
    count: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Ids counted in the current row, in first-seen order.
    touched: Vec<usize>,
}

impl CountScratch {
    fn new(n: usize) -> Self {
        CountScratch {
            count: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Start a row: open a fresh epoch (clearing stamps on the rare u32
    /// wrap).
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    fn bump(&mut self, j: usize) {
        if self.stamp[j] != self.epoch {
            self.stamp[j] = self.epoch;
            self.count[j] = 0;
            self.touched.push(j);
        }
        self.count[j] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The per-row `HashMap` build [`CoAssocBuilder::build`] replaced.
    fn build_oracle(n: usize, partitions: &[Vec<usize>], p: usize) -> Csr {
        let m = partitions.len();
        if m == 0 || p == 0 {
            return Csr::zeros(n, n);
        }
        let inv_m = 1.0 / m as f64;
        let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..n)
            .map(|i| {
                let mut counts: HashMap<usize, u32> = HashMap::new();
                for labels in partitions {
                    for (j, &l) in labels.iter().enumerate() {
                        if j != i && l == labels[i] {
                            *counts.entry(j).or_insert(0) += 1;
                        }
                    }
                }
                let mut cand: Vec<(usize, u32)> = counts.into_iter().collect();
                cand.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                cand.truncate(p);
                cand.sort_unstable_by_key(|&(j, _)| j);
                (
                    cand.iter().map(|&(j, _)| j).collect(),
                    cand.iter().map(|&(_, c)| f64::from(c) * inv_m).collect(),
                )
            })
            .collect();
        Csr::from_sparse_rows(&rows, n).max_symmetrize()
    }

    #[test]
    fn dense_scratch_build_equals_the_hash_map_build() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |k: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k as u64) as usize
        };
        for (n, m, k) in [
            (40usize, 5usize, 3usize),
            (61, 8, 7),
            (25, 3, 1),
            (90, 12, 12),
        ] {
            let partitions: Vec<Vec<usize>> =
                (0..m).map(|_| (0..n).map(|_| next(k)).collect()).collect();
            let mut builder = CoAssocBuilder::new(n);
            for labels in &partitions {
                builder.add_partition(labels);
            }
            for p in [1usize, 4, 10, n] {
                assert_eq!(
                    builder.build(p),
                    build_oracle(n, &partitions, p),
                    "n={n} m={m} p={p}"
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_a_build_above_the_threshold() {
        // 5 partitions of 1,500 objects into 3 clusters visit ≈ 3.75M
        // co-cluster pairs, over the ~1M-pair fan-out threshold.
        let n = 1500;
        let mut builder = CoAssocBuilder::new(n);
        for m in 0..5 {
            let labels: Vec<usize> = (0..n).map(|i| (i * (m + 7) / 13 + m) % 3).collect();
            builder.add_partition(&labels);
        }
        let before = mtrl_linalg::par::num_threads();
        mtrl_linalg::par::set_num_threads(1);
        let serial = builder.build(10);
        for t in 2..=4 {
            mtrl_linalg::par::set_num_threads(t);
            assert_eq!(builder.build(10), serial, "threads={t}");
        }
        mtrl_linalg::par::set_num_threads(before);
    }

    #[test]
    fn full_agreement_gives_unit_cliques() {
        let mut b = CoAssocBuilder::new(6);
        let labels = vec![0, 0, 0, 1, 1, 1];
        b.add_partition(&labels);
        b.add_partition(&labels);
        let c = b.build(5);
        assert_eq!(c.shape(), (6, 6));
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(4, 5), 1.0);
        assert_eq!(c.get(0, 3), 0.0);
        assert_eq!(c.get(0, 0), 0.0, "no self loops");
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn disagreement_gives_fractional_weights() {
        let mut b = CoAssocBuilder::new(4);
        b.add_partition(&[0, 0, 1, 1]);
        b.add_partition(&[0, 1, 1, 0]);
        let c = b.build(5);
        assert_eq!(c.get(0, 1), 0.5);
        assert_eq!(c.get(0, 3), 0.5);
        assert_eq!(c.get(2, 3), 0.5);
        assert_eq!(c.get(1, 2), 0.5);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn top_p_truncates_but_symmetrisation_restores_mutual_edges() {
        // Object 0 co-clusters with 1..=3 equally; p = 2 keeps the two
        // lowest indices from 0's side, but 3 still keeps 0.
        let mut b = CoAssocBuilder::new(5);
        b.add_partition(&[0, 0, 0, 0, 1]);
        let c = b.build(2);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 2), 1.0);
        // Kept through 3's own row + max_symmetrize.
        assert_eq!(c.get(0, 3), 1.0);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn partition_order_is_irrelevant() {
        let a = vec![0, 1, 0, 1, 0];
        let b2 = vec![1, 1, 0, 0, 0];
        let mut x = CoAssocBuilder::new(5);
        x.add_partition(&a);
        x.add_partition(&b2);
        let mut y = CoAssocBuilder::new(5);
        y.add_partition(&b2);
        y.add_partition(&a);
        assert_eq!(x.build(3), y.build(3));
    }

    #[test]
    fn empty_builder_yields_empty_matrix() {
        let b = CoAssocBuilder::new(4);
        let c = b.build(3);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (4, 4));
    }
}
