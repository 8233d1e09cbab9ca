//! Positive/negative part splits used by the multiplicative update (Eq. 21).
//!
//! The paper splits each matrix `M` into
//! `M⁺ = (|M| + M)/2` and `M⁻ = (|M| − M)/2`, so that `M = M⁺ − M⁻`
//! with both parts nonnegative. The split keeps the multiplicative `G`
//! update nonnegative even though the graph Laplacian `L` and the
//! association terms `A`, `B` have mixed signs.

use crate::mat::Mat;

/// Both parts in one pass over the data.
pub fn split_parts(m: &Mat) -> (Mat, Mat) {
    let (rows, cols) = m.shape();
    let mut pos = Mat::zeros(rows, cols);
    let mut neg = Mat::zeros(rows, cols);
    for ((&v, p), n) in m
        .as_slice()
        .iter()
        .zip(pos.as_mut_slice())
        .zip(neg.as_mut_slice())
    {
        if v > 0.0 {
            *p = v;
        } else {
            *n = -v;
        }
    }
    (pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::rand_uniform;

    #[test]
    fn parts_reconstruct() {
        let m = rand_uniform(10, 10, -2.0, 2.0, 77);
        let (p, n) = split_parts(&m);
        let diff = p.sub(&n).unwrap();
        assert!(diff.approx_eq(&m, 1e-15));
    }

    #[test]
    fn parts_nonnegative() {
        let m = rand_uniform(6, 4, -1.0, 1.0, 78);
        let (p, n) = split_parts(&m);
        assert!(p.min() >= 0.0);
        assert!(n.min() >= 0.0);
    }

    #[test]
    fn parts_match_single_pass() {
        let m = rand_uniform(5, 5, -1.0, 1.0, 79);
        let (p, n) = split_parts(&m);
        let positive = Mat::from_fn(5, 5, |i, j| if m[(i, j)] > 0.0 { m[(i, j)] } else { 0.0 });
        let negative = Mat::from_fn(5, 5, |i, j| if m[(i, j)] < 0.0 { -m[(i, j)] } else { 0.0 });
        assert!(p.approx_eq(&positive, 0.0));
        assert!(n.approx_eq(&negative, 0.0));
    }

    #[test]
    fn zero_goes_nowhere() {
        let m = Mat::zeros(3, 3);
        let (p, n) = split_parts(&m);
        assert_eq!(p.sum(), 0.0);
        assert_eq!(n.sum(), 0.0);
    }
}
