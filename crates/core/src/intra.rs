//! Intra-type relationship learning — stages 1 & 2 of RHCHME.
//!
//! For every object type this module derives the two kinds of intra-type
//! relationships the paper combines (Sec. III-A/B):
//!
//! * `W_E` / `L_E` — the pNN graph with cosine weighting (Eq. 3; the paper
//!   fixes cosine and `p = 5` for SNMTF and RHCHME);
//! * `W_S` / `L_S` — the subspace-learned affinity from the SPG solver
//!   (Eq. 9, Algorithm 1);
//!
//! and assembles the heterogeneous manifold ensemble `L = α·L_S + L_E`
//! (Eq. 12) as a block-diagonal operator over all types.
//!
//! The pieces are exposed separately so the parameter-sweep benches
//! (Fig. 2) can cache what does not change: the γ sweep recomputes only
//! `L_S`, the α sweep only the combination, and the λ/β sweeps nothing at
//! all.

use crate::Result;
use mtrl_ann::{pnn_graph_backend_prec, GraphBackend};
use mtrl_graph::{laplacian_csr, LaplacianKind, WeightScheme};
use mtrl_linalg::{Mat, Precision};
use mtrl_sparse::{Csr, CsrBuilder, SparseBlockDiag};
use mtrl_subspace::{affinity_to_weights, spg_affinity, SpgConfig, CANDIDATES};

/// Relative pruning threshold applied to subspace affinities before graph
/// construction: entries below `PRUNE_REL * max(W)` are dropped, removing
/// optimisation noise while keeping genuine within-subspace links.
const PRUNE_REL: f64 = 1e-4;

/// Per-row truncation of the symmetrised subspace affinity: keep the
/// strongest `TOP_K` links per object. The SPG solution carries a weak
/// dense tail from optimisation noise; its top entries are far purer
/// (within-subspace) than its mass average, so truncation sharpens `L_S`
/// without losing the distant within-manifold links the method exists to
/// find. `TOP_K = 10 = 2p` keeps `L_S` on the same sparsity scale as the
/// pNN member of the ensemble. The SPG solver's per-row support,
/// [`CANDIDATES`]` = 64`, bounds what this truncation can see.
const TOP_K: usize = 10;
const _: () = assert!(TOP_K <= CANDIDATES);

/// Per-type pNN Laplacians assembled into a sparse block-diagonal
/// operator (`O(p·n_k)` stored entries per block — the fit loop never
/// sees an `n x n` dense matrix).
///
/// `features[k]` holds the objects of type `k` as rows.
pub fn pnn_laplacians(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
) -> Result<SparseBlockDiag> {
    pnn_laplacians_backend(features, p, scheme, kind, &GraphBackend::Exact)
}

/// [`pnn_laplacians`] with an explicit neighbour-search backend.
///
/// [`GraphBackend::Exact`] reproduces the blocked all-pairs kernel;
/// the approximate backends route candidate generation through an
/// ANN index (`mtrl_ann`) while distances and selection stay on the
/// exact kernel's primitives, so exhaustive settings are bit-identical
/// and every setting is thread-count invariant.
pub fn pnn_laplacians_backend(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
    backend: &GraphBackend,
) -> Result<SparseBlockDiag> {
    pnn_laplacians_backend_prec(features, p, scheme, kind, backend, Precision::F64)
}

/// [`pnn_laplacians_backend`] with an explicit kernel [`Precision`]:
/// [`Precision::F32`] routes the neighbour search through the
/// f32-storage Gram chain (`mtrl_graph::knn_f32` / the quantised ANN
/// candidate path) while edge weighting and the Laplacian normalisation
/// stay `f64`.
pub fn pnn_laplacians_backend_prec(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
    backend: &GraphBackend,
    precision: Precision,
) -> Result<SparseBlockDiag> {
    let blocks = features
        .iter()
        .map(|f| {
            laplacian_csr(
                &pnn_graph_backend_prec(f, p, scheme, backend, precision),
                kind,
            )
        })
        .collect();
    Ok(SparseBlockDiag::new(blocks)?)
}

/// Per-type subspace-learned Laplacians (`L_S`) via SPG, as a block
/// diagonal. `base_cfg.seed` is offset per type so types do not share RNG
/// streams. Each type's affinity arrives sparse (at most
/// [`CANDIDATES`] entries per row) and is truncated and symmetrised on
/// its rows, so no stage here is `n x n`.
pub fn subspace_laplacians(
    features: &[Mat],
    base_cfg: &SpgConfig,
    kind: LaplacianKind,
) -> Result<SparseBlockDiag> {
    let mut blocks = Vec::with_capacity(features.len());
    for (k, f) in features.iter().enumerate() {
        let cfg = SpgConfig {
            seed: base_cfg.seed.wrapping_add(k as u64),
            ..base_cfg.clone()
        };
        let res = spg_affinity(f, &cfg)?;
        let truncated = truncate_rows_top_k(&res.w, TOP_K);
        let max_w = truncated.iter().fold(0.0, |acc: f64, (_, _, v)| acc.max(v));
        let w = affinity_to_weights(&truncated, PRUNE_REL * max_w);
        blocks.push(laplacian_csr(&w, kind));
    }
    Ok(SparseBlockDiag::new(blocks)?)
}

/// Keep only the `k` largest entries in each row of a nonnegative sparse
/// affinity, ties going to the lower column. `total_cmp` orders every
/// value, so a non-finite entry cannot panic the selection.
fn truncate_rows_top_k(w: &Csr, k: usize) -> Csr {
    let mut out = CsrBuilder::with_capacity(w.rows(), w.cols(), w.rows() * k);
    let mut order: Vec<usize> = Vec::new();
    for i in 0..w.rows() {
        let (cols, vals) = w.row(i);
        order.clear();
        order.extend(0..cols.len());
        if k < cols.len() {
            order.select_nth_unstable_by(k, |&a, &b| vals[b].total_cmp(&vals[a]).then(a.cmp(&b)));
            order.truncate(k);
            order.sort_unstable();
        }
        for &p in &order {
            out.push(cols[p], vals[p]);
        }
        out.finish_row();
    }
    out.build()
}

/// Combine the two Laplacian families into the heterogeneous manifold
/// ensemble `L = α·L_S + L_E` (Eq. 12) with merged sparsity patterns —
/// both members are sparse, so their ensemble stays sparse.
///
/// # Errors
/// Fails if the block layouts differ.
pub fn hetero_laplacian(
    l_s: &SparseBlockDiag,
    l_e: &SparseBlockDiag,
    alpha: f64,
) -> Result<SparseBlockDiag> {
    Ok(l_s.lin_comb(alpha, l_e, 1.0)?)
}

/// The six RMC candidate Laplacians of Sec. IV-B: `p ∈ {5, 10}` crossed
/// with binary / heat-kernel (self-tuned σ) / cosine weighting, each as a
/// block diagonal over all types.
pub fn rmc_candidates(features: &[Mat], kind: LaplacianKind) -> Result<Vec<SparseBlockDiag>> {
    let mut out = Vec::with_capacity(6);
    for p in [5usize, 10] {
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            out.push(pnn_laplacians(features, p, scheme, kind)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::rand_uniform;

    fn toy_features() -> Vec<Mat> {
        vec![
            rand_uniform(15, 6, 0.0, 1.0, 90),
            rand_uniform(12, 5, 0.0, 1.0, 91),
        ]
    }

    #[test]
    fn pnn_block_layout() {
        let f = toy_features();
        let l = pnn_laplacians(&f, 3, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(l.num_blocks(), 2);
        assert_eq!(l.n(), 27);
        // Normalised Laplacian diagonals are <= 1.
        for k in 0..2 {
            let block = l.block(k);
            for i in 0..block.rows() {
                let d = block.get(i, i);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "block {k} diag {i}: {d}");
            }
        }
    }

    #[test]
    fn pnn_blocks_are_sparse() {
        // The point of the sparse pipeline: a pNN Laplacian block stores
        // O(p·n) entries, far below n².
        let f = toy_features();
        let p = 3;
        let l = pnn_laplacians(&f, p, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        for k in 0..l.num_blocks() {
            let n_k = l.block(k).rows();
            assert!(
                l.block(k).nnz() <= 2 * p * n_k + n_k,
                "block {k} has {} entries for n_k = {n_k}",
                l.block(k).nnz()
            );
        }
    }

    #[test]
    fn subspace_block_layout_and_psd_diag() {
        let f = toy_features();
        let cfg = SpgConfig {
            max_iter: 40,
            ..SpgConfig::default()
        };
        let l = subspace_laplacians(&f, &cfg, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(l.n(), 27);
        // Symmetric blocks.
        for k in 0..2 {
            assert!(l.block(k).is_symmetric(1e-9), "block {k} not symmetric");
        }
    }

    #[test]
    fn truncation_keeps_the_largest_entries_with_index_ties() {
        let w = Csr::from_sparse_rows(
            &[
                (vec![1, 2, 3, 4], vec![0.5, 2.0, 0.5, 1.0]),
                (vec![0], vec![3.0]),
                (vec![0, 1, 3], vec![f64::NAN, 1.0, f64::INFINITY]),
            ],
            5,
        );
        let t = truncate_rows_top_k(&w, 2);
        assert_eq!(t.row(0), (&[2, 4][..], &[2.0, 1.0][..]));
        assert_eq!(t.row(1), (&[0][..], &[3.0][..]));
        // total_cmp ranks NaN above +inf: no panic, two entries kept.
        assert_eq!(t.row(2).0, &[0, 3]);
        let t1 = truncate_rows_top_k(&w, 3);
        assert_eq!(t1.row(0).0, &[1, 2, 4]); // the 0.5 tie goes to column 1
    }

    #[test]
    fn hetero_combination_matches_blocks() {
        let f = toy_features();
        let le = pnn_laplacians(&f, 3, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        let ls = pnn_laplacians(&f, 4, WeightScheme::Binary, LaplacianKind::SymNormalized).unwrap();
        let combo = hetero_laplacian(&ls, &le, 2.0).unwrap();
        for k in 0..2 {
            let expect = le
                .block(k)
                .to_dense()
                .add(&ls.block(k).to_dense().scaled(2.0))
                .unwrap();
            assert!(combo.block(k).to_dense().approx_eq(&expect, 1e-12));
        }
    }

    #[test]
    fn rmc_candidate_count_and_layout() {
        let f = toy_features();
        let cands = rmc_candidates(&f, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(cands.len(), 6);
        assert!(cands.iter().all(|c| c.n() == 27));
    }
}
