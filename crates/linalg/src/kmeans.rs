//! k-means with k-means++ seeding.
//!
//! Algorithm 2 initialises the cluster-membership matrix `G` with k-means
//! ("initialization of the cluster membership matrix G0 by k-means"); the
//! paper notes the final result is insensitive to the initialisation but
//! uses k-means for the reported numbers, so we do too.

use crate::vecops::sq_dist;
use crate::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Cluster index per object.
    pub labels: Vec<usize>,
    /// Final centroids, one per row.
    pub centroids: Mat,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Run Lloyd's algorithm with k-means++ seeding on the rows of `data`.
///
/// `k` is clamped to the number of objects. Empty clusters are re-seeded
/// with the point farthest from its centroid.
///
/// # Panics
/// Panics if `data` has no rows or `k == 0`.
pub fn kmeans(data: &Mat, k: usize, seed: u64, max_iter: usize) -> KmeansResult {
    let n = data.rows();
    assert!(n > 0, "kmeans on empty data");
    assert!(k > 0, "kmeans with k = 0");
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids = plus_plus_init(data, k, &mut rng);
    kmeans_seeded(data, centroids, max_iter)
}

/// Lloyd's algorithm from *given* initial centroids (one per row).
///
/// The warm-refit reseed path uses this to track drift: seeding from a
/// previous model's cluster centroids keeps cluster indices aligned with
/// that model (no label permutation to solve) while the centroids move
/// to follow the current data.
///
/// # Panics
/// Panics if `data` has no rows, `init` has no rows, or the widths
/// differ.
pub fn kmeans_seeded(data: &Mat, init: Mat, max_iter: usize) -> KmeansResult {
    let n = data.rows();
    assert!(n > 0, "kmeans on empty data");
    let k = init.rows();
    assert!(k > 0, "kmeans with no initial centroids");
    assert_eq!(init.cols(), data.cols(), "centroid width mismatch");
    let d = data.cols();

    let mut centroids = init;
    let mut labels = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;

    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step.
        let mut new_inertia = 0.0;
        for (i, label) in labels.iter_mut().enumerate() {
            let row = data.row(i);
            let mut best = (0usize, f64::INFINITY);
            for c in 0..k {
                let dist = sq_dist(row, centroids.row(c));
                if dist < best.1 {
                    best = (c, dist);
                }
            }
            *label = best.0;
            new_inertia += best.1;
        }
        // Update step.
        let mut sums = Mat::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (i, &l) in labels.iter().enumerate() {
            counts[l] += 1;
            let srow = sums.row_mut(l);
            for (s, &v) in srow.iter_mut().zip(data.row(i)) {
                *s += v;
            }
        }
        #[allow(clippy::needless_range_loop)] // c indexes three parallel structures
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the point farthest from
                // its current centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_dist(data.row(a), centroids.row(labels[a]));
                        let db = sq_dist(data.row(b), centroids.row(labels[b]));
                        da.total_cmp(&db)
                    })
                    .expect("nonempty data");
                centroids.row_mut(c).copy_from_slice(data.row(far));
                labels[far] = c;
            } else {
                let inv = 1.0 / counts[c] as f64;
                let srow = sums.row(c).to_vec();
                for (cv, sv) in centroids.row_mut(c).iter_mut().zip(srow) {
                    *cv = sv * inv;
                }
            }
        }
        // Convergence: inertia stopped improving.
        if (inertia - new_inertia).abs() <= 1e-10 * inertia.max(1.0) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }

    KmeansResult {
        labels,
        centroids,
        inertia,
        iterations,
    }
}

/// k-means++ seeding: first centre uniform, subsequent centres sampled
/// proportional to squared distance from the nearest chosen centre.
fn plus_plus_init(data: &Mat, k: usize, rng: &mut StdRng) -> Mat {
    let n = data.rows();
    let d = data.cols();
    let mut centroids = Mat::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut dist2: Vec<f64> = (0..n)
        .map(|i| sq_dist(data.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = dist2.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        for (i, d2) in dist2.iter_mut().enumerate() {
            let nd = sq_dist(data.row(i), centroids.row(c));
            if nd < *d2 {
                *d2 = nd;
            }
        }
    }
    centroids
}

/// One-hot membership matrix from labels, with additive smoothing so no
/// entry is structurally zero (multiplicative updates cannot revive exact
/// zeros) and rows l1-normalised.
pub fn labels_to_membership(labels: &[usize], k: usize, smoothing: f64) -> Mat {
    let mut g = Mat::filled(labels.len(), k, smoothing);
    for (i, &l) in labels.iter().enumerate() {
        g[(i, l.min(k.saturating_sub(1)))] += 1.0;
    }
    g.normalize_rows_l1(1e-300);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::rand_normal;

    fn blobs(per: usize, seed: u64) -> (Mat, Vec<usize>) {
        // Three Gaussian blobs, well separated.
        let centers = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let noise = rand_normal(3 * per, 2, 0.0, 0.3, seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for i in 0..per {
                let idx = c * per + i;
                rows.push(vec![
                    center[0] + noise[(idx, 0)],
                    center[1] + noise[(idx, 1)],
                ]);
                labels.push(c);
            }
        }
        (Mat::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs(20, 1);
        let res = kmeans(&data, 3, 42, 100);
        assert!(mtrl_metrics::nmi(&truth, &res.labels) > 0.99);
        assert!(res.inertia < 60.0 * 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs(15, 2);
        let a = kmeans(&data, 3, 7, 100);
        let b = kmeans(&data, 3, 7, 100);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn seeded_lloyd_keeps_cluster_alignment() {
        let (data, truth) = blobs(20, 9);
        // Initial centroids near (but not at) the true centres, in a
        // fixed order — the labels must come out in that same order.
        let init = Mat::from_rows(&[vec![0.5, -0.5], vec![9.0, 1.0], vec![1.0, 9.5]]).unwrap();
        let res = kmeans_seeded(&data, init, 50);
        assert_eq!(res.labels, truth, "cluster indices must stay aligned");
        assert!(res.inertia.is_finite());
        // Degenerate seeds still terminate.
        let res2 = kmeans_seeded(&data, Mat::zeros(2, 2), 10);
        assert_eq!(res2.labels.len(), data.rows());
    }

    #[test]
    fn k_clamped_to_n() {
        let data = Mat::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let res = kmeans(&data, 10, 1, 10);
        assert_eq!(res.centroids.rows(), 2);
        // Both points become their own cluster.
        assert_ne!(res.labels[0], res.labels[1]);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn identical_points_one_cluster_fine() {
        let data = Mat::zeros(6, 3);
        let res = kmeans(&data, 2, 3, 20);
        assert_eq!(res.labels.len(), 6);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (data, _) = blobs(15, 4);
        let i1 = kmeans(&data, 1, 5, 100).inertia;
        let i3 = kmeans(&data, 3, 5, 100).inertia;
        assert!(i3 < i1);
    }

    #[test]
    fn membership_matrix_rows_sum_to_one() {
        let g = labels_to_membership(&[0, 2, 1, 2], 3, 0.2);
        assert_eq!(g.shape(), (4, 3));
        for i in 0..4 {
            let s: f64 = g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            // Dominant entry is the labelled one.
            let max_j = crate::vecops::argmax(g.row(i)).unwrap();
            assert_eq!(max_j, [0, 2, 1, 2][i]);
        }
        // No structural zeros.
        assert!(g.min() > 0.0);
    }

    #[test]
    fn membership_clamps_out_of_range_labels() {
        let g = labels_to_membership(&[5], 3, 0.1);
        assert_eq!(crate::vecops::argmax(g.row(0)).unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_data_panics() {
        kmeans(&Mat::zeros(0, 2), 2, 1, 10);
    }
}
