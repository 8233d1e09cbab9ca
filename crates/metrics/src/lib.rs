//! # mtrl-metrics
//!
//! External clustering-quality metrics for the RHCHME reproduction.
//!
//! The paper evaluates with two criteria (Sec. IV-C):
//!
//! * **FScore** (Eq. 38) — class-weighted best-match F1 between true
//!   classes and predicted clusters ([`fscore`]);
//! * **NMI** (Eq. 39) — normalised mutual information ([`nmi`]); we use
//!   the standard Strehl–Ghosh normalisation `MI / sqrt(H_L · H_C)`
//!   (the paper's printed denominator omits the square root, which would
//!   not be bounded by 1; ref \[26\] uses the sqrt form).
//!
//! [`purity`] and [`adjusted_rand_index`] extend the paper's two
//! criteria; the evaluation layer reports the ARI beside them (README,
//! "The evaluation layer").

mod confusion;

use confusion::Confusion;

/// The three external criteria the evaluation layer reports per
/// scenario, computed in one call by [`quality_scores`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityScores {
    /// FScore (Eq. 38).
    pub fscore: f64,
    /// Normalised mutual information (Eq. 39, sqrt-normalised).
    pub nmi: f64,
    /// Adjusted Rand index (Hubert & Arabie).
    pub ari: f64,
}

/// Compute [`fscore`], [`nmi`] and [`adjusted_rand_index`] together —
/// the report hook `mtrl-eval` scenario runs and `pipeline::MethodOutput`
/// funnel through.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn quality_scores(truth: &[usize], pred: &[usize]) -> QualityScores {
    QualityScores {
        fscore: fscore(truth, pred),
        nmi: nmi(truth, pred),
        ari: adjusted_rand_index(truth, pred),
    }
}

/// FScore of Eq. (38): `Σ_j (n_j/n) · max_l F(j, l)` with
/// `F(j, l) = 2 n_jl / (n_j + n_l)`.
///
/// `truth` and `pred` are parallel label slices; label values need not be
/// contiguous. Returns 0.0 for empty input.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn fscore(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Confusion::new(truth, pred);
    if c.total() == 0 {
        return 0.0;
    }
    let n = c.total() as f64;
    let mut score = 0.0;
    for (j, &nj) in c.class_sizes().iter().enumerate() {
        if nj == 0 {
            continue;
        }
        let mut best = 0.0f64;
        for (l, &nl) in c.cluster_sizes().iter().enumerate() {
            let njl = c.count(j, l);
            if njl == 0 || nl == 0 {
                continue;
            }
            let f = 2.0 * njl as f64 / (nj + nl) as f64;
            best = best.max(f);
        }
        score += (nj as f64 / n) * best;
    }
    score
}

/// Normalised mutual information `MI / sqrt(H_truth · H_pred)` (Eq. 39,
/// sqrt-normalised per ref \[26\]).
///
/// Returns 1.0 when both partitions are trivial-and-identical, 0.0 when
/// either partition carries no information (single cluster) but the other
/// does.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn nmi(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Confusion::new(truth, pred);
    let n = c.total() as f64;
    if c.total() == 0 {
        return 0.0;
    }
    let h_t = entropy(c.class_sizes(), n);
    let h_p = entropy(c.cluster_sizes(), n);
    if h_t <= 0.0 && h_p <= 0.0 {
        // Both partitions are a single cluster: identical by definition.
        return 1.0;
    }
    if h_t <= 0.0 || h_p <= 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (j, &nj) in c.class_sizes().iter().enumerate() {
        if nj == 0 {
            continue;
        }
        for (l, &nl) in c.cluster_sizes().iter().enumerate() {
            let njl = c.count(j, l);
            if njl == 0 || nl == 0 {
                continue;
            }
            let p_jl = njl as f64 / n;
            mi += p_jl * ((n * njl as f64) / (nj as f64 * nl as f64)).ln();
        }
    }
    (mi / (h_t * h_p).sqrt()).clamp(0.0, 1.0)
}

/// Purity: `Σ_l max_j n_jl / n` — the fraction of objects assigned to the
/// majority class of their cluster.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn purity(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Confusion::new(truth, pred);
    if c.total() == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for l in 0..c.cluster_sizes().len() {
        let mut best = 0usize;
        for j in 0..c.class_sizes().len() {
            best = best.max(c.count(j, l));
        }
        correct += best;
    }
    correct as f64 / c.total() as f64
}

/// Adjusted Rand Index (Hubert & Arabie): chance-corrected pair agreement
/// in `[-1, 1]`, 1.0 for identical partitions, ≈0 for random ones.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn adjusted_rand_index(truth: &[usize], pred: &[usize]) -> f64 {
    let c = Confusion::new(truth, pred);
    let n = c.total();
    if n < 2 {
        return 1.0;
    }
    let choose2 = |x: usize| (x * x.saturating_sub(1)) as f64 / 2.0;
    let sum_cells: f64 = (0..c.class_sizes().len())
        .flat_map(|j| (0..c.cluster_sizes().len()).map(move |l| (j, l)))
        .map(|(j, l)| choose2(c.count(j, l)))
        .sum();
    let sum_rows: f64 = c.class_sizes().iter().map(|&x| choose2(x)).sum();
    let sum_cols: f64 = c.cluster_sizes().iter().map(|&x| choose2(x)).sum();
    let total = choose2(n);
    let expected = sum_rows * sum_cols / total;
    let max_index = 0.5 * (sum_rows + sum_cols);
    if (max_index - expected).abs() < 1e-300 {
        return 1.0; // degenerate: both partitions trivial
    }
    (sum_cells - expected) / (max_index - expected)
}

fn entropy(sizes: &[usize], n: f64) -> f64 {
    let mut h = 0.0;
    for &s in sizes {
        if s > 0 {
            let p = s as f64 / n;
            h -= p * p.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        // Same grouping, different label names.
        let pred = vec![5, 5, 9, 9, 7, 7];
        assert!((fscore(&truth, &pred) - 1.0).abs() < 1e-12);
        assert!((nmi(&truth, &pred) - 1.0).abs() < 1e-12);
        assert!((purity(&truth, &pred) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&truth, &pred) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quality_scores_bundles_the_three_criteria() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        let pred = vec![0, 0, 1, 2, 2, 2];
        let q = quality_scores(&truth, &pred);
        assert_eq!(q.fscore, fscore(&truth, &pred));
        assert_eq!(q.nmi, nmi(&truth, &pred));
        assert_eq!(q.ari, adjusted_rand_index(&truth, &pred));
    }

    #[test]
    fn single_cluster_prediction() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 0, 0, 0];
        // NMI of an uninformative partition is 0.
        assert_eq!(nmi(&truth, &pred), 0.0);
        // Purity: majority class covers half.
        assert_eq!(purity(&truth, &pred), 0.5);
        // FScore: each class j has F(j, only-cluster) = 2*2/(2+4) = 2/3.
        assert!((fscore(&truth, &pred) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_symmetry() {
        let a = vec![0, 0, 1, 1, 2, 2, 0, 1];
        let b = vec![1, 1, 0, 0, 2, 1, 0, 2];
        assert!((nmi(&a, &b) - nmi(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn metrics_bounded() {
        // A scrambled labelling.
        let truth = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
        let pred = vec![2, 2, 1, 0, 0, 1, 1, 0, 2, 2];
        for v in [
            fscore(&truth, &pred),
            nmi(&truth, &pred),
            purity(&truth, &pred),
        ] {
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
        let ari = adjusted_rand_index(&truth, &pred);
        assert!((-1.0..=1.0).contains(&ari));
    }

    #[test]
    fn fscore_hand_computed() {
        // truth: class0 = {0,1,2}, class1 = {3,4}
        // pred:  cluster0 = {0,1,3}, cluster1 = {2,4}
        let truth = vec![0, 0, 0, 1, 1];
        let pred = vec![0, 0, 1, 0, 1];
        // class0: F(0,c0)=2*2/(3+3)=2/3; F(0,c1)=2*1/(3+2)=0.4 -> 2/3
        // class1: F(1,c0)=2*1/(2+3)=0.4; F(1,c1)=2*1/(2+2)=0.5 -> 0.5
        // FScore = 3/5 * 2/3 + 2/5 * 0.5 = 0.4 + 0.2 = 0.6
        assert!((fscore(&truth, &pred) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nmi_hand_computed_two_by_two() {
        // Perfectly anti-correlated 2x2: identical partitions up to naming.
        let truth = vec![0, 0, 1, 1];
        let pred = vec![1, 1, 0, 0];
        assert!((nmi(&truth, &pred) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_random_labels_near_zero() {
        // Independent labels: expectation of ARI is 0 (allow generous tol).
        let truth: Vec<usize> = (0..200).map(|i| i % 4).collect();
        let pred: Vec<usize> = (0..200).map(|i| (i * 7 + 3) % 5).collect();
        let ari = adjusted_rand_index(&truth, &pred);
        assert!(ari.abs() < 0.1, "{ari}");
    }

    #[test]
    fn empty_input() {
        assert_eq!(fscore(&[], &[]), 0.0);
        assert_eq!(nmi(&[], &[]), 0.0);
        assert_eq!(purity(&[], &[]), 0.0);
    }

    #[test]
    fn both_trivial_partitions_identical() {
        let t = vec![0, 0, 0];
        let p = vec![4, 4, 4];
        assert_eq!(nmi(&t, &p), 1.0);
        assert_eq!(adjusted_rand_index(&t, &p), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        fscore(&[0, 1], &[0]);
    }

    #[test]
    fn refinement_keeps_high_purity() {
        // Splitting every class into two clusters: purity stays 1.
        let truth = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let pred = vec![0, 0, 1, 1, 2, 2, 3, 3];
        assert_eq!(purity(&truth, &pred), 1.0);
    }
}
