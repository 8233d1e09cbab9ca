//! Small vector helpers shared by the solvers and clustering code.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The dot products `a · b_q` of one row with `N` others, each summed
/// from `-0` in index order exactly as `Iterator::sum` sums
/// `a[x] * b_q[x]`, with the `N` chains of dependent adds interleaved so
/// they overlap instead of running one after another.
///
/// # Panics
/// Panics if some `b_q` is shorter than `a`.
#[inline]
pub fn dots<const N: usize>(a: &[f64], bs: [&[f64]; N]) -> [f64; N] {
    let bs = bs.map(|b| &b[..a.len()]);
    let mut out = [-0.0; N];
    for (x, &ax) in a.iter().enumerate() {
        for (o, b) in out.iter_mut().zip(&bs) {
            *o += ax * b[x];
        }
    }
    out
}

/// Euclidean (l2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Cosine similarity; returns 0.0 when either vector is (near-)zero.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    if na < 1e-300 || nb < 1e-300 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Index of the maximum element; ties resolve to the first occurrence.
/// Returns `None` for empty input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Scale `a` in place so it sums to 1 (no-op for near-zero total mass).
pub fn normalize_l1(a: &mut [f64]) {
    let s: f64 = a.iter().map(|x| x.abs()).sum();
    if s > 1e-300 {
        for x in a.iter_mut() {
            *x /= s;
        }
    }
}

/// Dot product of a sparse vector (parallel `indices`/`values`) with a
/// dense vector. Out-of-range indices are ignored — the caller validates
/// dimensions; this keeps the serving hot loop branch-light.
pub fn sparse_dense_dot(indices: &[usize], values: &[f64], dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&j, &v) in indices.iter().zip(values) {
        if let Some(&d) = dense.get(j) {
            acc += v * d;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        // Clamped into [-1, 1] despite rounding.
        let v = vec![1e-10; 100];
        assert!(cosine(&v, &v) <= 1.0);
    }

    #[test]
    fn argmax_ties_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn mean_and_l1_normalize() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        let mut v = vec![2.0, 2.0];
        normalize_l1(&mut v);
        assert_eq!(v, vec![0.5, 0.5]);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
