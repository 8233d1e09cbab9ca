//! Toy manifold geometries for the Fig. 1 reproduction.
//!
//! Fig. 1 of the paper shows data in R² drawn from a union of two
//! intersecting circle-shaped manifolds plus background noise, and argues
//! that pNN graphs cannot separate points near the intersection while
//! subspace/manifold-aware affinities can. [`two_circles`] generates
//! exactly that scene; [`union_of_subspaces`] generates the linear-subspace
//! analogue on which reconstruction-based methods (Sec. II-B) are exact.

use mtrl_linalg::random::NormalGen;
use mtrl_linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Label used for background noise points in [`two_circles`].
pub const NOISE_LABEL: usize = 2;

/// Two intersecting circles in R² with optional background noise.
///
/// Returns `(points, labels)` where labels are `0` / `1` for the circles
/// and [`NOISE_LABEL`] for noise points. The circles are centred `1.2·r`
/// apart so they intersect (as in the paper's figure).
pub fn two_circles(
    n_per_circle: usize,
    radius: f64,
    noise_std: f64,
    n_noise: usize,
    seed: u64,
) -> (Mat, Vec<usize>) {
    assert!(n_per_circle > 0 && radius > 0.0, "degenerate circle spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = NormalGen::new();
    let centers = [(0.0, 0.0), (1.2 * radius, 0.0)];
    let mut rows = Vec::with_capacity(2 * n_per_circle + n_noise);
    let mut labels = Vec::with_capacity(2 * n_per_circle + n_noise);
    for (c, &(cx, cy)) in centers.iter().enumerate() {
        for i in 0..n_per_circle {
            let theta: f64 = 2.0 * std::f64::consts::PI * (i as f64) / (n_per_circle as f64)
                + rng.gen_range(0.0..0.05);
            let x = cx + radius * theta.cos() + noise_std * gauss.next(&mut rng);
            let y = cy + radius * theta.sin() + noise_std * gauss.next(&mut rng);
            rows.push(vec![x, y]);
            labels.push(c);
        }
    }
    // Background noise: uniform over the bounding box of both circles.
    let (lo_x, hi_x) = (-1.5 * radius, 2.7 * radius);
    let (lo_y, hi_y) = (-1.5 * radius, 1.5 * radius);
    for _ in 0..n_noise {
        rows.push(vec![rng.gen_range(lo_x..hi_x), rng.gen_range(lo_y..hi_y)]);
        labels.push(NOISE_LABEL);
    }
    (Mat::from_rows(&rows).expect("consistent rows"), labels)
}

/// Points drawn from a union of `k` random linear subspaces of dimension
/// `dim` inside R^`ambient`, `n_per` points each, with isotropic Gaussian
/// noise of `noise_std`.
///
/// Returns `(points, labels)` with labels `0..k`.
///
/// # Panics
/// Panics if `dim >= ambient` or any count is zero.
pub fn union_of_subspaces(
    k: usize,
    dim: usize,
    ambient: usize,
    n_per: usize,
    noise_std: f64,
    seed: u64,
) -> (Mat, Vec<usize>) {
    assert!(k > 0 && n_per > 0, "degenerate subspace spec");
    assert!(dim >= 1 && dim < ambient, "need 1 <= dim < ambient");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = NormalGen::new();
    let mut rows = Vec::with_capacity(k * n_per);
    let mut labels = Vec::with_capacity(k * n_per);
    for s in 0..k {
        // Random (non-orthonormalised) basis: spans a `dim`-dimensional
        // subspace with probability 1.
        let basis: Vec<Vec<f64>> = (0..dim)
            .map(|_| (0..ambient).map(|_| gauss.next(&mut rng)).collect())
            .collect();
        for _ in 0..n_per {
            let mut point = vec![0.0; ambient];
            for b in &basis {
                let coeff = rng.gen_range(-2.0..2.0);
                for (p, &bv) in point.iter_mut().zip(b) {
                    *p += coeff * bv;
                }
            }
            for p in point.iter_mut() {
                *p += noise_std * gauss.next(&mut rng);
            }
            rows.push(point);
            labels.push(s);
        }
    }
    (Mat::from_rows(&rows).expect("consistent rows"), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::vecops::norm2;

    #[test]
    fn circles_shapes_and_labels() {
        let (pts, labels) = two_circles(50, 1.0, 0.02, 10, 42);
        assert_eq!(pts.rows(), 110);
        assert_eq!(pts.cols(), 2);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 50);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 50);
        assert_eq!(labels.iter().filter(|&&l| l == NOISE_LABEL).count(), 10);
    }

    #[test]
    fn circle_points_lie_near_radius() {
        let (pts, labels) = two_circles(40, 2.0, 0.01, 0, 43);
        for (i, &l) in labels.iter().enumerate() {
            let (cx, cy) = if l == 0 { (0.0, 0.0) } else { (2.4, 0.0) };
            let r = ((pts[(i, 0)] - cx).powi(2) + (pts[(i, 1)] - cy).powi(2)).sqrt();
            assert!((r - 2.0).abs() < 0.1, "point {i} radius {r}");
        }
    }

    #[test]
    fn circles_intersect() {
        // Centres are 1.2r apart with equal radii r: circles overlap.
        let (pts, labels) = two_circles(200, 1.0, 0.0, 0, 44);
        // There must exist points of circle 0 and circle 1 that are very
        // close to each other (near the intersection).
        let mut best = f64::INFINITY;
        for i in 0..pts.rows() {
            for j in 0..pts.rows() {
                if labels[i] == 0 && labels[j] == 1 {
                    let d = mtrl_linalg::vecops::sq_dist(pts.row(i), pts.row(j)).sqrt();
                    best = best.min(d);
                }
            }
        }
        assert!(best < 0.05, "circles do not touch: min dist {best}");
    }

    #[test]
    fn deterministic() {
        let (a, _) = two_circles(20, 1.0, 0.05, 5, 7);
        let (b, _) = two_circles(20, 1.0, 0.05, 5, 7);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn subspace_points_near_their_span() {
        let (pts, labels) = union_of_subspaces(3, 2, 6, 30, 0.0, 8);
        assert_eq!(pts.rows(), 90);
        assert_eq!(labels.len(), 90);
        // Noiseless points from a 2-D subspace: any 3 points from the same
        // subspace plus the origin are linearly dependent. Check rank via
        // Gram determinant of 3 same-class points being ~0 in the
        // orthogonal complement: simpler proxy — points are nonzero and
        // each class has correct count.
        for s in 0..3 {
            assert_eq!(labels.iter().filter(|&&l| l == s).count(), 30);
        }
        assert!((0..pts.rows()).all(|i| norm2(pts.row(i)) > 0.0));
    }

    #[test]
    #[should_panic(expected = "dim < ambient")]
    fn rejects_full_dim_subspace() {
        union_of_subspaces(2, 3, 3, 5, 0.0, 1);
    }
}
