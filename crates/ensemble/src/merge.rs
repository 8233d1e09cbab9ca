//! Robust merge: probability-trajectory random walk with a
//! hyperedge-medoid fallback.
//!
//! The default merge treats the sparse co-association matrix as a random
//! walk seeded by the reference partition and discretised step by step:
//! each step re-votes every object by its co-association mass toward the
//! current clusters and folds the vote into a θ-decayed trajectory memory
//! `E_t = θ·E_{t-1} + W·onehot(labels_{t-1})`, relabelling by each row's
//! argmax (first maximum → deterministic ties). Step 1 is a pure
//! direct-evidence vote — so strongly co-associated neighbourhoods
//! immediately outvote a noisy reference assignment — and later steps
//! propagate consensus along trajectories, the probability-trajectory
//! reading of Huang et al.'s PTA (PAPERS.md).
//!
//! When the walk degenerates (fewer than two consensus clusters), the
//! k-hyperedge-medoid fallback takes every
//! base cluster as a hyperedge, greedily selects `k` of them by uncovered
//! coverage, and assigns each object to its highest-affinity selected
//! edge (containment plus mean co-association into the edge).

use mtrl_linalg::{vecops, Mat};
use mtrl_sparse::Csr;
use std::collections::HashMap;

/// Consensus labels for one object type, plus how they were produced.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// One consensus label `< k` per object.
    pub labels: Vec<usize>,
    /// Whether the hyperedge-medoid fallback produced the labels.
    pub used_fallback: bool,
}

/// Merge one type's co-associations into `k` consensus clusters,
/// selecting the best walk anchor among several candidate references.
///
/// Every candidate whose labels fit in `k` clusters seeds its own
/// trajectory walk (the hyperedge-medoid labels are always added as one
/// more candidate, so a bad member pool cannot pin the consensus), and
/// the non-degenerate outcome with the highest ratio-association score —
/// total intra-cluster co-association mass per cluster, normalised by
/// cluster size — wins. Ties and the empty-candidate case resolve to the
/// earliest candidate, keeping selection deterministic.
///
/// # Panics
/// Panics if any candidate's length differs from the co-association
/// dimension.
pub fn consensus_over_references(
    coassoc: &Csr,
    candidates: &[&[usize]],
    k: usize,
    walk_steps: usize,
    walk_decay: f64,
    hyperedges: &[Vec<usize>],
) -> MergeOutcome {
    let n = coassoc.rows();
    let medoid = hyperedge_medoid_labels(
        coassoc,
        k,
        hyperedges,
        candidates.first().map_or(&[], |c| c),
    );
    let mut best: Option<(f64, Vec<usize>)> = None;
    for reference in candidates
        .iter()
        .copied()
        .chain(std::iter::once(&medoid[..]))
    {
        assert_eq!(reference.len(), n, "reference length mismatch");
        if reference.iter().any(|&c| c >= k) {
            continue;
        }
        let labels = trajectory_labels(coassoc, reference, k, walk_steps, walk_decay);
        if distinct_clusters(&labels, k) < 2.min(k) {
            continue;
        }
        let score = ratio_association(coassoc, &labels, k);
        if best.as_ref().is_none_or(|(b, _)| score > *b) {
            best = Some((score, labels));
        }
    }
    match best {
        Some((_, labels)) => MergeOutcome {
            labels,
            used_fallback: false,
        },
        None => MergeOutcome {
            labels: medoid,
            used_fallback: true,
        },
    }
}

fn distinct_clusters(labels: &[usize], k: usize) -> usize {
    let mut seen = vec![false; k];
    labels.iter().for_each(|&c| seen[c] = true);
    seen.iter().filter(|&&s| s).count()
}

/// Ratio-association consensus score: per-cluster intra-cluster
/// co-association mass divided by cluster size, summed over clusters.
/// The per-size normalisation keeps one giant cluster from absorbing
/// all the mass trivially.
fn ratio_association(coassoc: &Csr, labels: &[usize], k: usize) -> f64 {
    let mut mass = vec![0.0f64; k];
    let mut size = vec![0usize; k];
    for (i, &c) in labels.iter().enumerate() {
        size[c] += 1;
        let (idx, vals) = coassoc.row(i);
        for (&j, &w) in idx.iter().zip(vals) {
            if labels[j] == c {
                mass[c] += w;
            }
        }
    }
    mass.iter()
        .zip(&size)
        .filter(|&(_, &s)| s > 0)
        .map(|(&m, &s)| m / s as f64)
        .sum()
}

/// The probability-trajectory walk, discretised: starting from the
/// reference partition, each step re-votes every object by its
/// co-association mass toward each current cluster (the row-stochastic
/// walk operator and the raw co-association row give the same argmax, so
/// no normalisation pass is needed), accumulated into a θ-decayed
/// trajectory memory `E_t = θ·E_{t-1} + W·onehot(labels_{t-1})`. Step 1
/// is a pure direct-evidence vote; later steps let consensus propagate
/// along trajectories while θ bounds how far a noisy region can drift.
/// Objects with empty co-association rows keep their reference label.
fn trajectory_labels(
    coassoc: &Csr,
    reference: &[usize],
    k: usize,
    walk_steps: usize,
    walk_decay: f64,
) -> Vec<usize> {
    let n = coassoc.rows();
    let mut labels = reference.to_vec();
    let mut memory = Mat::zeros(n, k);
    let mut votes = vec![0.0f64; k];
    for _ in 0..walk_steps.max(1) {
        // Synchronous step: all votes read the previous step's labels.
        let prev = labels.clone();
        for (i, label) in labels.iter_mut().enumerate() {
            votes.iter_mut().for_each(|v| *v = 0.0);
            let (idx, vals) = coassoc.row(i);
            for (&j, &w) in idx.iter().zip(vals) {
                votes[prev[j]] += w;
            }
            let row = memory.row_mut(i);
            for (m, &v) in row.iter_mut().zip(&votes) {
                *m = walk_decay * *m + v;
            }
            if let Some(best) = vecops::argmax(row) {
                if row[best] > 0.0 {
                    *label = best;
                }
            }
        }
    }
    labels
}

/// k-hyperedge-medoid consensus (the fallback merge).
fn hyperedge_medoid_labels(
    coassoc: &Csr,
    k: usize,
    hyperedges: &[Vec<usize>],
    reference: &[usize],
) -> Vec<usize> {
    let n = coassoc.rows();
    let edges: Vec<&Vec<usize>> = hyperedges.iter().filter(|e| !e.is_empty()).collect();
    if edges.is_empty() {
        return reference.to_vec();
    }
    // Greedy coverage selection of k medoid edges; ties and zero-gain
    // slots resolve to the lowest unselected index, keeping the
    // selection deterministic and exactly k-sized when possible.
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut covered = vec![false; n];
    while selected.len() < k.min(edges.len()) {
        let mut best: Option<(usize, usize)> = None; // (gain, edge index)
        for (e, members) in edges.iter().enumerate() {
            if selected.contains(&e) {
                continue;
            }
            let gain = members.iter().filter(|&&i| !covered[i]).count();
            let better = match best {
                None => true,
                Some((bg, _)) => gain > bg,
            };
            if better {
                best = Some((gain, e));
            }
        }
        let Some((_, e)) = best else { break };
        selected.push(e);
        for &i in edges[e] {
            covered[i] = true;
        }
    }
    // Assign each object to its highest-affinity selected edge:
    // containment bonus plus mean co-association into the edge.
    (0..n)
        .map(|i| {
            let (idx, vals) = coassoc.row(i);
            let weights: HashMap<usize, f64> =
                idx.iter().copied().zip(vals.iter().copied()).collect();
            let mut best = (0usize, f64::NEG_INFINITY);
            for (slot, &e) in selected.iter().enumerate() {
                let members = edges[e];
                let contained = f64::from(u8::from(members.contains(&i)));
                let affinity: f64 = members
                    .iter()
                    .map(|j| weights.get(j).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    / members.len() as f64;
                let score = contained + affinity;
                if score > best.1 {
                    best = (slot, score);
                }
            }
            best.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coassoc::CoAssocBuilder;

    /// The single-reference merge: the walk from `reference` (labels
    /// `< k`), or the hyperedge-medoid fallback over `hyperedges` when it
    /// degenerates.
    fn consensus_labels(
        coassoc: &Csr,
        reference: &[usize],
        k: usize,
        walk_steps: usize,
        walk_decay: f64,
        hyperedges: &[Vec<usize>],
    ) -> MergeOutcome {
        let n = coassoc.rows();
        assert_eq!(reference.len(), n, "reference length mismatch");
        assert!(
            reference.iter().all(|&c| c < k),
            "reference label out of range"
        );
        let labels = trajectory_labels(coassoc, reference, k, walk_steps, walk_decay);
        if distinct_clusters(&labels, k) >= 2.min(k) {
            return MergeOutcome {
                labels,
                used_fallback: false,
            };
        }
        MergeOutcome {
            labels: hyperedge_medoid_labels(coassoc, k, hyperedges, reference),
            used_fallback: true,
        }
    }

    fn coassoc_of(partitions: &[Vec<usize>], n: usize, p: usize) -> Csr {
        let mut b = CoAssocBuilder::new(n);
        for labels in partitions {
            b.add_partition(labels);
        }
        b.build(p)
    }

    #[test]
    fn unanimous_partitions_are_reproduced() {
        let labels = vec![0, 0, 0, 1, 1, 1];
        let c = coassoc_of(&[labels.clone(), labels.clone()], 6, 4);
        let out = consensus_labels(&c, &labels, 2, 3, 0.8, &[]);
        assert!(!out.used_fallback);
        assert_eq!(out.labels, labels);
    }

    #[test]
    fn walk_outvotes_noisy_reference() {
        // Object 2 is misassigned by the reference but co-clusters with
        // 0 and 1 in every other partition.
        let majority = vec![0, 0, 0, 1, 1, 1];
        let reference = vec![0, 0, 1, 1, 1, 1];
        let c = coassoc_of(
            &[majority.clone(), majority.clone(), reference.clone()],
            6,
            4,
        );
        let out = consensus_labels(&c, &reference, 2, 3, 0.8, &[]);
        assert!(!out.used_fallback);
        assert_eq!(out.labels, majority);
    }

    #[test]
    fn degenerate_walk_falls_back_to_hyperedges() {
        // All-ones reference (single cluster used) with no co-association
        // signal would collapse to one cluster; the fallback must fire.
        let reference = vec![0, 0, 0, 0];
        let c = Csr::zeros(4, 4);
        let edges = vec![vec![0, 1], vec![2, 3]];
        let out = consensus_labels(&c, &reference, 2, 3, 0.8, &edges);
        assert!(out.used_fallback);
        assert_eq!(out.labels[0], out.labels[1]);
        assert_eq!(out.labels[2], out.labels[3]);
        assert_ne!(out.labels[0], out.labels[2]);
    }

    #[test]
    fn hyperedge_medoids_select_by_coverage() {
        let labels = vec![0, 0, 0, 1, 1, 1];
        let c = coassoc_of(std::slice::from_ref(&labels), 6, 4);
        let edges = vec![vec![0, 1, 2], vec![3, 4, 5], vec![0, 1]];
        let out = hyperedge_medoid_labels(&c, 2, &edges, &labels);
        assert_eq!(out[..3], [out[0]; 3]);
        assert_eq!(out[3..], [out[3]; 3]);
        assert_ne!(out[0], out[3]);
    }
}
