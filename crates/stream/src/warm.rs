//! Warm-start membership assembly.
//!
//! A warm refit ([`rhchme::Rhchme::fit_warm`]) needs an initial stacked
//! membership `G₀` for the *new* corpus layout. [`warm_membership`]
//! builds it from the previous fit's serving export:
//!
//! * a **surviving** object copies its membership row from the previous
//!   [`rhchme::export::FittedModel`]'s `G` block — the fitted state carries over
//!   (Luong & Nayak's warm-start property of matrix-factorisation
//!   multi-aspect clustering);
//! * a **new** object is initialised from its fold-in posterior against
//!   the previous centroids ([`mtrl_serve::Assigner`]) — the best
//!   available estimate before any optimisation, in the spirit of
//!   Huang et al.'s accumulated co-association evidence;
//! * every row is smoothed towards the in-block uniform distribution so
//!   no entry is an exact zero: the multiplicative update of Algorithm 2
//!   can never revive a hard zero, and a fold-in posterior may contain
//!   them (clamped negative similarities).

use crate::error::StreamError;
use mtrl_linalg::Mat;
use mtrl_serve::{Assigner, SparseVec};
use mtrl_sparse::Csr;
use rhchme::MultiTypeData;
use std::borrow::Cow;

/// Per-type survivor maps: `survivors[t][i]` is `Some(old_row)` when row
/// `i` of type `t` in the new layout is the same object as row
/// `old_row` in the model's layout, `None` for a newly arrived object.
pub(crate) type SurvivorMap = Vec<Vec<Option<usize>>>;

/// Identity survivor map for the common streaming case: every type
/// keeps its first `model_sizes[t]` objects and appends new ones at the
/// end (`new_sizes[t] >= model_sizes[t]`).
pub(crate) fn grown_survivors(model_sizes: &[usize], new_sizes: &[usize]) -> SurvivorMap {
    model_sizes
        .iter()
        .zip(new_sizes)
        .map(|(&old, &new)| {
            (0..new)
                .map(|i| if i < old { Some(i) } else { None })
                .collect()
        })
        .collect()
}

/// Knobs for [`warm_membership_opts`].
#[derive(Debug, Clone)]
pub(crate) struct WarmOptions {
    /// Uniform mixing weight in `[0, 1)` applied to every row (`0.1` is
    /// a good default; `labels_to_membership` uses a comparable 0.2 for
    /// cold k-means seeds).
    pub smoothing: f64,
    /// Partial-reseed confidence floor: rows whose max-posterior under
    /// the previous model falls below this value do **not** inherit the
    /// stale basin — they are reseeded from a k-means pass over their
    /// type's feature rows, Lloyd-iterated from the *model's own
    /// centroids* so cluster indices stay aligned while the centroids
    /// track the drifted data ([`rhchme::kmeans::kmeans_seeded`]).
    /// `None` disables reseeding (the pre-reseed warm path).
    pub reseed_confidence: Option<f64>,
}

/// Lloyd iteration budget of the partial-reseed k-means pass.
const RESEED_KMEANS_ITERS: usize = 20;

impl Default for WarmOptions {
    fn default() -> Self {
        WarmOptions {
            smoothing: 0.1,
            reseed_confidence: None,
        }
    }
}

/// Build the warm initial membership for `data` from the previous
/// model's live [`Assigner`] (borrowed, not rebuilt — the streaming
/// session passes the same assigner it serves fold-ins with).
///
/// The stream session's warm path (`warm_membership_opts`) with reseeding
/// disabled.
///
/// # Errors
/// Returns [`StreamError::Invalid`] when the model and data disagree on
/// type count, cluster counts or feature dimensions, or a survivor map
/// is malformed; fold-in errors propagate as [`StreamError::Serve`].
pub fn warm_membership(
    data: &MultiTypeData,
    assigner: &Assigner,
    survivors: &SurvivorMap,
    smoothing: f64,
) -> Result<Mat, StreamError> {
    warm_membership_opts(
        data,
        assigner,
        survivors,
        &WarmOptions {
            smoothing,
            ..WarmOptions::default()
        },
    )
}

/// [`warm_membership`] with the full option set, including the
/// partial-reseed policy for low-confidence rows.
///
/// With `reseed_confidence` set, a row (surviving *or* new) whose
/// max-posterior falls below the floor is re-initialised from
/// drift-tracking k-means instead of the previous basin: the type's
/// feature rows are Lloyd-clustered starting from the model's
/// (denormalised) centroids, and the low-confidence rows take their
/// refreshed assignment. High-confidence rows keep the plain warm
/// behaviour, so the refit stays warm where the model is still right
/// and escapes the stale basin exactly where it is not. Types whose
/// feature-view width no longer matches the model (their views grow
/// with the streaming type) skip reseeding — their rows copy from the
/// previous `G` as before.
///
/// # Errors
/// Same contract as [`warm_membership`].
pub(crate) fn warm_membership_opts(
    data: &MultiTypeData,
    assigner: &Assigner,
    survivors: &SurvivorMap,
    opts: &WarmOptions,
) -> Result<Mat, StreamError> {
    let smoothing = opts.smoothing;
    let model = assigner.model();
    let k = data.num_types();
    if model.num_types() != k || survivors.len() != k {
        return Err(StreamError::Invalid(format!(
            "{k} data types vs {} model types / {} survivor maps",
            model.num_types(),
            survivors.len()
        )));
    }
    if data.cluster_counts() != model.cluster_counts.as_slice() {
        return Err(StreamError::Invalid(format!(
            "cluster counts changed: {:?} vs model {:?}",
            data.cluster_counts(),
            model.cluster_counts
        )));
    }
    if !(0.0..1.0).contains(&smoothing) {
        return Err(StreamError::Invalid(format!(
            "smoothing {smoothing} outside [0, 1)"
        )));
    }
    let mut g0 = Mat::zeros(data.total_objects(), data.total_clusters());
    for (t, type_survivors) in survivors.iter().enumerate() {
        if type_survivors.len() != data.sizes()[t] {
            return Err(StreamError::Invalid(format!(
                "type {t}: {} survivor entries for {} objects",
                type_survivors.len(),
                data.sizes()[t]
            )));
        }
        // Fold-in (and its feature-dim contract) is only needed for
        // types with new arrivals. Survivor-only types may have grown
        // feature views in the meantime — a term's features are its
        // relations to the (growing) document set — and that is fine:
        // their rows copy straight from the previous `G`. The view is
        // assembled *sparsely* (per-row CSR concatenation, no dense
        // materialisation), so refit cost scales with the number of new
        // rows, not the corpus size.
        let needs_foldin = type_survivors.iter().any(Option::is_none);
        let view = if needs_foldin {
            let v = SparseFeatureView::new(data, t);
            if v.dim != model.feature_dims[t] {
                return Err(StreamError::Invalid(format!(
                    "type {t}: feature dim {} vs model {} (cannot fold in new objects)",
                    v.dim, model.feature_dims[t]
                )));
            }
            Some(v)
        } else {
            None
        };
        let ck = data.cluster_counts()[t];
        let row_off = data.spec().offset(t);
        let col_off = data.cluster_spec().offset(t);
        let uniform = smoothing / ck as f64;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(type_survivors.len());
        for (i, origin) in type_survivors.iter().enumerate() {
            let row = match *origin {
                Some(old) => {
                    if old >= model.sizes[t] {
                        return Err(StreamError::Invalid(format!(
                            "type {t}: survivor {i} maps to row {old} of {} model rows",
                            model.sizes[t]
                        )));
                    }
                    model.g_blocks[t].row(old).to_vec()
                }
                None => {
                    let v = view.as_ref().expect("view built for fold-in types");
                    assigner.assign(t, &v.row(i)?)?
                }
            };
            rows.push(row);
        }
        // Partial reseed: rows whose max-posterior sags below the floor
        // do not inherit the stale basin. Both survivor rows (ℓ1
        // normalised by Eq. 22) and fold-in posteriors sum to 1, so the
        // row maximum is the confidence in either case. Reseeding needs
        // the type's feature view at the model's width — types whose
        // view grew with the stream keep the plain warm rows.
        if let Some(floor) = opts.reseed_confidence {
            let low: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.iter().cloned().fold(0.0, f64::max) < floor)
                .map(|(i, _)| i)
                .collect();
            if !low.is_empty() {
                let feats = data.features(t);
                if feats.cols() == model.feature_dims[t] {
                    // Denormalised model centroids seed Lloyd so cluster
                    // indices stay aligned with the model while the
                    // centroids move to track the drifted data.
                    let mut init = model.centroids[t].clone();
                    for (c, &norm) in model.centroid_norms[t].iter().enumerate() {
                        if norm > 0.0 {
                            for v in init.row_mut(c) {
                                *v *= norm;
                            }
                        }
                    }
                    let km = rhchme::kmeans::kmeans_seeded(&feats, init, RESEED_KMEANS_ITERS);
                    for &i in &low {
                        let mut row = vec![0.0; ck];
                        row[km.labels[i]] = 1.0;
                        rows[i] = row;
                    }
                }
            }
        }
        for (i, row) in rows.iter().enumerate() {
            let dst = g0.row_mut(row_off + i);
            for (c, &v) in row.iter().enumerate() {
                dst[col_off + c] = (1.0 - smoothing) * v + uniform;
            }
        }
    }
    Ok(g0)
}

/// Sparse, per-row access to one type's feature view — the CSR
/// equivalent of `MultiTypeData::features(t)`'s column layout
/// (relations concatenated in ascending partner order, transposed where
/// stored the other way). Transposes are taken once per view (`O(nnz)`)
/// instead of densifying `n × D`, so folding in a handful of new rows
/// costs only those rows.
struct SparseFeatureView<'a> {
    /// `(matrix with one object per row, column offset in the view)`.
    parts: Vec<(Cow<'a, Csr>, usize)>,
    dim: usize,
}

impl<'a> SparseFeatureView<'a> {
    fn new(data: &'a MultiTypeData, t: usize) -> Self {
        let mut parts = Vec::new();
        let mut dim = 0;
        for l in 0..data.num_types() {
            if l == t {
                continue;
            }
            let (a, b) = if t < l { (t, l) } else { (l, t) };
            if let Some(rel) = data.relation(a, b) {
                let m: Cow<'a, Csr> = if t < l {
                    Cow::Borrowed(rel)
                } else {
                    Cow::Owned(rel.transpose())
                };
                let cols = m.cols();
                parts.push((m, dim));
                dim += cols;
            }
        }
        SparseFeatureView { parts, dim }
    }

    /// Row `i` as one sparse vector over the concatenated view — the
    /// same nonzeros, values and ordering `features(t).row(i)` would
    /// yield after sparsification.
    fn row(&self, i: usize) -> Result<SparseVec, StreamError> {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (m, offset) in &self.parts {
            let (cols, vals) = m.row(i);
            indices.extend(cols.iter().map(|&j| offset + j));
            values.extend_from_slice(vals);
        }
        Ok(SparseVec::new(indices, values)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};
    use rhchme::{Rhchme, RhchmeConfig};

    fn fitted() -> (mtrl_datagen::MultiTypeCorpus, Rhchme, Assigner) {
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![8, 8, 8],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 45),
            background_frac: 0.25,
            topic_noise: 0.25,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 120,
        });
        let rhchme = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let result = rhchme.fit_corpus(&corpus).unwrap();
        let model = rhchme.export_model(&result, &corpus).unwrap();
        (corpus, rhchme, Assigner::new(model).unwrap())
    }

    #[test]
    fn identity_survivors_reproduce_previous_g() {
        let (corpus, rhchme, assigner) = fitted();
        let model = assigner.model().clone();
        let data =
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor).unwrap();
        let survivors = grown_survivors(&model.sizes, data.sizes());
        let g0 = warm_membership(&data, &assigner, &survivors, 0.0).unwrap();
        // With zero smoothing and all-survivor maps, G0's blocks are the
        // model's blocks verbatim, block structure included.
        for t in 0..3 {
            let ro = data.spec().offset(t);
            let co = data.cluster_spec().offset(t);
            for i in 0..data.sizes()[t] {
                for c in 0..data.cluster_counts()[t] {
                    assert_eq!(g0[(ro + i, co + c)], model.g_blocks[t][(i, c)]);
                }
                for j in 0..data.total_clusters() {
                    if !(co..co + data.cluster_counts()[t]).contains(&j) {
                        assert_eq!(g0[(ro + i, j)], 0.0, "block leak at ({},{j})", ro + i);
                    }
                }
            }
        }
    }

    #[test]
    fn smoothing_keeps_rows_positive_distributions() {
        let (corpus, rhchme, assigner) = fitted();
        let model = assigner.model().clone();
        let data =
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor).unwrap();
        // Pretend the last 6 documents are new arrivals.
        let mut survivors = grown_survivors(&model.sizes, data.sizes());
        for slot in survivors[0].iter_mut().skip(18) {
            *slot = None;
        }
        let g0 = warm_membership(&data, &assigner, &survivors, 0.1).unwrap();
        for t in 0..3 {
            let ro = data.spec().offset(t);
            let co = data.cluster_spec().offset(t);
            for i in 0..data.sizes()[t] {
                let row = &g0.row(ro + i)[co..co + data.cluster_counts()[t]];
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "type {t} row {i} sums to {sum}");
                assert!(
                    row.iter().all(|&v| v > 0.0),
                    "type {t} row {i} has a hard zero"
                );
            }
        }
    }

    #[test]
    fn sparse_view_matches_dense_features() {
        // The sparse fold-in path must see exactly the nonzeros (values
        // and order) of the dense feature view it replaced.
        let (corpus, rhchme, _assigner) = fitted();
        let data =
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor).unwrap();
        for t in 0..3 {
            let dense = data.features(t);
            let view = SparseFeatureView::new(&data, t);
            assert_eq!(view.dim, dense.cols(), "type {t}");
            for i in 0..data.sizes()[t] {
                let sv = view.row(i).unwrap();
                let expect = SparseVec::from_dense(dense.row(i));
                assert_eq!(sv.indices, expect.indices, "type {t} row {i}");
                assert_eq!(sv.values, expect.values, "type {t} row {i}");
            }
        }
    }

    #[test]
    fn partial_reseed_floor_semantics() {
        let (corpus, rhchme, assigner) = fitted();
        let model = assigner.model().clone();
        let data =
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor).unwrap();
        let survivors = grown_survivors(&model.sizes, data.sizes());
        // Floor 0.0: no row can fall below it — bit-identical to the
        // plain warm path.
        let plain = warm_membership(&data, &assigner, &survivors, 0.1).unwrap();
        let zero = warm_membership_opts(
            &data,
            &assigner,
            &survivors,
            &WarmOptions {
                smoothing: 0.1,
                reseed_confidence: Some(0.0),
            },
        )
        .unwrap();
        assert!(plain == zero, "floor 0 must not reseed anything");
        // Floor above 1: every row reseeds from centroid-seeded k-means.
        // Rows stay valid in-block distributions, and because Lloyd is
        // seeded from the model's own centroids the reseeded labels stay
        // aligned with the fitted clustering on this clean corpus.
        let all = warm_membership_opts(
            &data,
            &assigner,
            &survivors,
            &WarmOptions {
                smoothing: 0.1,
                reseed_confidence: Some(1.1),
            },
        )
        .unwrap();
        let ro = data.spec().offset(0);
        let co = data.cluster_spec().offset(0);
        let ck = data.cluster_counts()[0];
        let mut agree = 0;
        for i in 0..data.sizes()[0] {
            let row = &all.row(ro + i)[co..co + ck];
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "doc row {i} sums to {sum}");
            let reseeded = mtrl_linalg::vecops::argmax(row).unwrap();
            let previous = mtrl_linalg::vecops::argmax(model.g_blocks[0].row(i)).unwrap();
            if reseeded == previous {
                agree += 1;
            }
        }
        assert!(
            agree * 2 > data.sizes()[0],
            "reseeded labels lost cluster alignment: {agree}/{}",
            data.sizes()[0]
        );
    }

    #[test]
    fn rejects_layout_mismatches() {
        let (corpus, rhchme, assigner) = fitted();
        let model = assigner.model().clone();
        let data =
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor).unwrap();
        let good = grown_survivors(&model.sizes, data.sizes());
        assert!(
            warm_membership(&data, &assigner, &good, 1.0).is_err(),
            "smoothing"
        );
        let mut short = good.clone();
        short[0].pop();
        assert!(warm_membership(&data, &assigner, &short, 0.1).is_err());
        let mut out_of_range = good.clone();
        out_of_range[0][0] = Some(999);
        assert!(warm_membership(&data, &assigner, &out_of_range, 0.1).is_err());
        let mut wrong_types = good;
        wrong_types.pop();
        assert!(warm_membership(&data, &assigner, &wrong_types, 0.1).is_err());
    }
}
