//! Fitted-model export: everything serving needs, nothing it doesn't.
//!
//! A fitted RHCHME run is summarised by the factor matrices of Eq. (15) —
//! per-type membership blocks `G_k` and the cluster association `S` —
//! plus per-type *feature centroids* derived from them. Luong & Nayak
//! ("Learning Inter- and Intra-manifolds for Matrix Factorization-based
//! Multi-Aspect Data Clustering") identify exactly these factors as the
//! artifact to persist for multi-aspect assignment of unseen objects: a
//! new document folds into the learned clustering by similarity against
//! the centroids in the learned subspace, with no re-optimisation.
//!
//! [`FittedModel`] is that bundle, with a schema version and shape
//! metadata so the serving layer (`mtrl-serve`) can validate a loaded
//! bundle before trusting it. See `mtrl_serve::persist` for the on-disk
//! bundle (version + content digest + this struct's sections).

use crate::error::RhchmeError;
use crate::multitype::MultiTypeData;
use crate::rhchme::{RhchmeConfig, RhchmeResult};
use crate::Result;
use mtrl_linalg::Mat;

/// Version of the serialized [`FittedModel`] schema.
///
/// Bump on any breaking change to the bundle layout; loaders refuse
/// bundles whose `schema_version` differs from the version they were
/// built against (see `mtrl_serve::persist::load`).
pub const SCHEMA_VERSION: u32 = 1;

/// A fitted RHCHME model in serving form.
///
/// All matrices are dense row-major `f64`; `g_blocks[k]` is `n_k x c_k`,
/// `s` is `c x c` over the stacked cluster dimension, and `centroids[k]`
/// is `c_k x D_k` over type `k`'s feature view (row-ℓ2 normalised, the
/// pre-normalisation norms kept in `centroid_norms`).
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Schema version of this bundle ([`SCHEMA_VERSION`] at save time).
    pub schema_version: u32,
    /// Which method produced this model, as a [`crate::MethodSpec::key`]
    /// string (`"rhchme"`, `"ensemble"`, …). Optional provenance: absent
    /// in bundles saved before the field existed.
    pub method: Option<String>,
    /// The hyper-parameters the model was fitted with.
    pub config: RhchmeConfig,
    /// Per-type object counts at fit time.
    pub sizes: Vec<usize>,
    /// Per-type cluster counts.
    pub cluster_counts: Vec<usize>,
    /// Per-type feature-view widths `D_k` (what fold-in vectors must match).
    pub feature_dims: Vec<usize>,
    /// Per-type membership blocks `G_k` (`n_k x c_k`).
    pub g_blocks: Vec<Mat>,
    /// Cluster association matrix `S` (`c x c`).
    pub s: Mat,
    /// Per-type cluster centroids in feature space, row-ℓ2 normalised.
    pub centroids: Vec<Mat>,
    /// Pre-normalisation ℓ2 norm of every centroid row (normalisation
    /// stats; near-zero entries mark clusters that captured no mass).
    pub centroid_norms: Vec<Vec<f64>>,
}

impl FittedModel {
    /// Number of object types.
    pub fn num_types(&self) -> usize {
        self.sizes.len()
    }

    /// Structural integrity check: shape consistency across every field
    /// and finiteness of all matrix data.
    ///
    /// # Errors
    /// Returns [`RhchmeError::InvalidData`] naming the first violation.
    pub fn validate(&self) -> Result<()> {
        let k = self.num_types();
        let err = |msg: String| Err(RhchmeError::InvalidData(msg));
        if k == 0 {
            return err("model has no object types".into());
        }
        for (name, len) in [
            ("cluster_counts", self.cluster_counts.len()),
            ("feature_dims", self.feature_dims.len()),
            ("g_blocks", self.g_blocks.len()),
            ("centroids", self.centroids.len()),
            ("centroid_norms", self.centroid_norms.len()),
        ] {
            if len != k {
                return err(format!("{name} has {len} entries for {k} types"));
            }
        }
        let c_total: usize = self.cluster_counts.iter().sum();
        if self.s.shape() != (c_total, c_total) {
            return err(format!(
                "S is {:?}, expected ({c_total}, {c_total})",
                self.s.shape()
            ));
        }
        for t in 0..k {
            let (nk, ck, dk) = (self.sizes[t], self.cluster_counts[t], self.feature_dims[t]);
            // Same invariants MultiTypeData enforces at fit time — a
            // degenerate type would break the posterior contract in
            // serving (empty posteriors, fabricated labels).
            if ck < 2 {
                return err(format!("type {t}: {ck} clusters (need at least 2)"));
            }
            if nk < ck {
                return err(format!("type {t}: {ck} clusters for {nk} objects"));
            }
            if self.g_blocks[t].shape() != (nk, ck) {
                return err(format!(
                    "G block {t} is {:?}, expected ({nk}, {ck})",
                    self.g_blocks[t].shape()
                ));
            }
            if self.centroids[t].shape() != (ck, dk) {
                return err(format!(
                    "centroid block {t} is {:?}, expected ({ck}, {dk})",
                    self.centroids[t].shape()
                ));
            }
            if self.centroid_norms[t].len() != ck {
                return err(format!(
                    "centroid_norms[{t}] has {} entries for {ck} clusters",
                    self.centroid_norms[t].len()
                ));
            }
        }
        for (name, mats) in [("G", &self.g_blocks), ("centroids", &self.centroids)] {
            if mats.iter().any(Mat::has_non_finite) {
                return err(format!("non-finite values in {name}"));
            }
        }
        if self.s.has_non_finite() {
            return err("non-finite values in S".into());
        }
        Ok(())
    }

    /// FNV-1a digest over the model's full content — schema version,
    /// configuration, shape metadata and matrix data bit patterns — used
    /// by the persistence layer to detect silent corruption of a saved
    /// bundle (including corruption of the stored hyper-parameters).
    pub fn content_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        fnv_eat(&mut h, &(self.schema_version as u64).to_le_bytes());
        fnv_eat_value(&mut h, &serde::Serialize::to_value(&self.config));
        for &n in self
            .sizes
            .iter()
            .chain(&self.cluster_counts)
            .chain(&self.feature_dims)
        {
            fnv_eat(&mut h, &(n as u64).to_le_bytes());
        }
        let mats = self
            .g_blocks
            .iter()
            .chain(std::iter::once(&self.s))
            .chain(&self.centroids);
        for m in mats {
            for &x in m.as_slice() {
                fnv_eat(&mut h, &x.to_bits().to_le_bytes());
            }
        }
        for norms in &self.centroid_norms {
            for &x in norms {
                fnv_eat(&mut h, &x.to_bits().to_le_bytes());
            }
        }
        // Provenance is folded in only when present, so bundles saved
        // before the field existed keep their original digests.
        if let Some(m) = &self.method {
            fnv_eat(&mut h, &[6]);
            fnv_eat(&mut h, m.as_bytes());
        }
        h
    }

    /// Tag this model with method provenance (builder style).
    #[must_use]
    pub fn with_method(mut self, method: &str) -> Self {
        self.method = Some(method.to_string());
        self
    }
}

#[inline]
fn fnv_eat(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Fold a serde value tree into the digest deterministically: a tag byte
/// per variant, then the content (number bit patterns, string bytes,
/// object keys in stored order).
fn fnv_eat_value(h: &mut u64, v: &serde::Value) {
    match v {
        serde::Value::Null => fnv_eat(h, &[0]),
        serde::Value::Bool(b) => fnv_eat(h, &[1, u8::from(*b)]),
        serde::Value::Number(n) => {
            fnv_eat(h, &[2]);
            fnv_eat(h, &n.to_bits().to_le_bytes());
        }
        serde::Value::String(s) => {
            fnv_eat(h, &[3]);
            fnv_eat(h, s.as_bytes());
        }
        serde::Value::Array(items) => {
            fnv_eat(h, &[4]);
            for item in items {
                fnv_eat_value(h, item);
            }
        }
        serde::Value::Object(pairs) => {
            fnv_eat(h, &[5]);
            for (key, val) in pairs {
                fnv_eat(h, key.as_bytes());
                fnv_eat_value(h, val);
            }
        }
    }
}

/// Assemble a [`FittedModel`] from a finished optimisation on the data
/// it carries.
///
/// Splits the stacked `G` into per-type blocks and derives each type's
/// cluster centroids as the membership-weighted mean of its feature rows
/// (then row-ℓ2 normalises them, keeping the raw norms as stats).
///
/// # Errors
/// Returns [`RhchmeError::InvalidData`] when `result`'s `G` or `S` does
/// not match its data's block layout.
pub fn build_model(config: RhchmeConfig, result: &RhchmeResult) -> Result<FittedModel> {
    let data = &result.data;
    let (n, c) = (data.total_objects(), data.total_clusters());
    if result.g.shape() != (n, c) {
        return Err(RhchmeError::InvalidData(format!(
            "result G is {:?} but the data has layout ({n}, {c})",
            result.g.shape()
        )));
    }
    if result.s.shape() != (c, c) {
        return Err(RhchmeError::InvalidData(format!(
            "result S is {:?}, expected ({c}, {c})",
            result.s.shape()
        )));
    }
    let k = data.num_types();
    let mut g_blocks = Vec::with_capacity(k);
    let mut centroids = Vec::with_capacity(k);
    let mut centroid_norms = Vec::with_capacity(k);
    let mut feature_dims = Vec::with_capacity(k);
    for t in 0..k {
        let g_k = result.g.submatrix(
            data.spec().offset(t),
            data.cluster_spec().offset(t),
            data.sizes()[t],
            data.cluster_counts()[t],
        );
        let (centroid, norms) = weighted_centroids(data, t, &g_k);
        feature_dims.push(centroid.cols());
        g_blocks.push(g_k);
        centroids.push(centroid);
        centroid_norms.push(norms);
    }
    let model = FittedModel {
        schema_version: SCHEMA_VERSION,
        method: None,
        config,
        sizes: data.sizes().to_vec(),
        cluster_counts: data.cluster_counts().to_vec(),
        feature_dims,
        g_blocks,
        s: result.s.clone(),
        centroids,
        centroid_norms,
    };
    model.validate()?;
    Ok(model)
}

/// Membership-weighted cluster centroids of type `t`: row `c` of the
/// output is `Σ_i w[i,c] x_i / Σ_i w[i,c]` over the rows `x_i` of its
/// feature view, summed over the objects `i` of positive (or NaN) weight
/// in ascending order, then row-ℓ2 normalised. Returns the centroid
/// matrix and the pre-normalisation row norms.
///
/// The view is never densified. `w·x` is summed over each relation's
/// stored entries only: the sums over the view's columns are the sparse
/// product `Xᵀ·W` (`D × c`), one [`mtrl_sparse::Csr::spmm_into`] per
/// relation block — the relation itself when the view reads it
/// transposed, its transpose otherwise — whose every entry sums its
/// stored terms in ascending object order from `+0`, as the dense sum
/// runs. A skipped term is `w·(+0) = +0`, and a weight the sum skips is
/// set to `0` and adds `0·x = ±0`; neither changes a sum that starts at
/// `+0`, which never becomes `−0`. So every bit equals the dense sum.
fn weighted_centroids(data: &MultiTypeData, t: usize, weights: &Mat) -> (Mat, Vec<f64>) {
    let (n, c) = weights.shape();
    debug_assert_eq!(n, data.sizes()[t]);
    let mut kept = weights.clone();
    for w in kept.as_mut_slice() {
        if *w <= 0.0 {
            *w = 0.0;
        }
    }
    let mut mass = vec![0.0f64; c];
    for i in 0..n {
        for (m, &w) in mass.iter_mut().zip(kept.row(i)) {
            *m += w;
        }
    }
    let blocks = data.feature_blocks(t);
    let d = blocks.iter().map(|b| b.width()).sum();
    let mut sums = Mat::zeros(d, c);
    for b in &blocks {
        if b.transposed {
            b.rel.spmm_into(&kept, &mut sums, b.offset, 0);
        } else {
            b.rel.transpose().spmm_into(&kept, &mut sums, b.offset, 0);
        }
    }
    let mut centroid = sums.transpose();
    for (cluster, &m) in mass.iter().enumerate() {
        if m > 1e-300 {
            let inv = 1.0 / m;
            for x in centroid.row_mut(cluster) {
                *x *= inv;
            }
        }
    }
    let norms: Vec<f64> = (0..c)
        .map(|cluster| mtrl_linalg::vecops::norm2(centroid.row(cluster)))
        .collect();
    centroid.normalize_rows_l2(1e-300);
    (centroid, norms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhchme::Rhchme;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    fn fitted() -> (mtrl_datagen::MultiTypeCorpus, Rhchme, RhchmeResult) {
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
            seed: 77,
        });
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let result = model.fit_corpus(&corpus).unwrap();
        (corpus, model, result)
    }

    /// The dense centroids: every feature row of the densified view,
    /// `axpy`'d into the clusters of positive weight.
    fn dense_centroids(features: &Mat, weights: &Mat) -> (Mat, Vec<f64>) {
        let (n, d) = features.shape();
        let c = weights.cols();
        let mut centroid = Mat::zeros(c, d);
        let mut mass = vec![0.0f64; c];
        for i in 0..n {
            for (cluster, &wc) in weights.row(i).iter().enumerate() {
                if wc <= 0.0 {
                    continue;
                }
                mass[cluster] += wc;
                for (c, &x) in centroid.row_mut(cluster).iter_mut().zip(features.row(i)) {
                    *c += wc * x;
                }
            }
        }
        for (cluster, &m) in mass.iter().enumerate() {
            if m > 1e-300 {
                let inv = 1.0 / m;
                for x in centroid.row_mut(cluster) {
                    *x *= inv;
                }
            }
        }
        let norms = (0..c)
            .map(|cluster| mtrl_linalg::vecops::norm2(centroid.row(cluster)))
            .collect();
        centroid.normalize_rows_l2(1e-300);
        (centroid, norms)
    }

    #[test]
    fn sparse_centroids_equal_the_dense_ones_bit_for_bit() {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let (corpus, model, result) = fitted();
        // Empty documents (rows 0 and 5 of both document relations) and
        // a term no document uses and no concept maps to (an all-zero
        // term row), refitted so the weights see them.
        let blank = |m: &mtrl_sparse::Csr, rows: &[usize], col: Option<usize>| {
            let mut dense = m.to_dense();
            for &i in rows {
                dense.row_mut(i).fill(0.0);
            }
            if let Some(j) = col {
                for i in 0..dense.rows() {
                    dense[(i, j)] = 0.0;
                }
            }
            mtrl_sparse::Csr::from_dense(&dense, 0.0)
        };
        let blanked = MultiTypeData::new(
            vec![corpus.num_docs(), corpus.num_terms(), corpus.num_concepts()],
            vec![3, 6, 3],
            vec![
                (0, 1, blank(&corpus.doc_term, &[0, 5], Some(4))),
                (0, 2, blank(&corpus.doc_concept, &[0, 5], None)),
                (1, 2, blank(&corpus.term_concept, &[4], None)),
            ],
        )
        .unwrap();
        let refit = model.fit_staged(blanked).unwrap().0;
        // Zero, −0 and negative weights are skipped by both paths.
        let mut signed = result.clone();
        for (i, v) in [(0, 0.0), (1, -0.0), (2, -0.5)] {
            signed.g[(i, 0)] = v;
        }
        for result in [&result, &refit, &signed] {
            let data = &result.data;
            let got = build_model(model.config().clone(), result).unwrap();
            for t in 0..data.num_types() {
                let g_k = result.g.submatrix(
                    data.spec().offset(t),
                    data.cluster_spec().offset(t),
                    data.sizes()[t],
                    data.cluster_counts()[t],
                );
                let features = data.features(t);
                let (centroids, norms) = dense_centroids(&features, &g_k);
                assert_eq!(got.feature_dims[t], features.cols(), "type {t}");
                assert_eq!(got.centroids[t].shape(), centroids.shape(), "type {t}");
                assert_eq!(
                    bits(got.centroids[t].as_slice()),
                    bits(centroids.as_slice()),
                    "type {t}: centroids"
                );
                assert_eq!(
                    bits(&got.centroid_norms[t]),
                    bits(&norms),
                    "type {t}: norms"
                );
            }
        }
    }

    #[test]
    fn export_shapes_and_validation() {
        let (_, model, result) = fitted();
        let fitted = model.export_model(&result).unwrap();
        assert_eq!(fitted.schema_version, SCHEMA_VERSION);
        assert_eq!(fitted.num_types(), 3);
        assert_eq!(fitted.sizes, vec![24, 60, 15]);
        assert_eq!(fitted.g_blocks[0].shape(), (24, fitted.cluster_counts[0]));
        // Doc view = terms + concepts.
        assert_eq!(fitted.feature_dims[0], 75);
        assert_eq!(fitted.centroids[0].shape(), (fitted.cluster_counts[0], 75));
        fitted.validate().unwrap();
        // Centroid rows are unit length (or zero for empty clusters).
        for t in 0..3 {
            for c in 0..fitted.cluster_counts[t] {
                let n = mtrl_linalg::vecops::norm2(fitted.centroids[t].row(c));
                assert!(n < 1.0 + 1e-9, "type {t} cluster {c} norm {n}");
            }
        }
    }

    #[test]
    fn digest_detects_mutation() {
        let (_, model, result) = fitted();
        let fitted = model.export_model(&result).unwrap();
        let d0 = fitted.content_digest();
        assert_eq!(d0, fitted.clone().content_digest());
        let mut tampered = fitted.clone();
        let v = tampered.s[(0, 0)];
        tampered.s[(0, 0)] = v + 1e-9;
        assert_ne!(d0, tampered.content_digest());
        // Hyper-parameter corruption must change the digest too.
        let mut config_tampered = fitted.clone();
        config_tampered.config.lambda += 1.0;
        assert_ne!(d0, config_tampered.content_digest());
    }

    #[test]
    fn method_provenance_is_optional_and_tolerated() {
        let (_, model, result) = fitted();
        let exported = model.export_model(&result).unwrap();
        // The RHCHME export path tags its provenance.
        assert_eq!(exported.method.as_deref(), Some("rhchme"));

        // A model without provenance still validates, and tagged models
        // fold the provenance into the digest (bundle round-trips of
        // both live in `mtrl_serve::persist`).
        let mut untagged = exported.clone();
        untagged.method = None;
        untagged.validate().unwrap();
        assert_ne!(exported.content_digest(), untagged.content_digest());

        // with_method is builder-style retagging.
        let retagged = untagged.with_method("ensemble");
        assert_eq!(retagged.method.as_deref(), Some("ensemble"));
    }

    #[test]
    fn validate_rejects_inconsistent_shapes() {
        let (_, model, result) = fitted();
        let mut fitted = model.export_model(&result).unwrap();
        fitted.cluster_counts[1] += 1;
        assert!(fitted.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_types() {
        let (_, model, result) = fitted();
        let exported = model.export_model(&result).unwrap();
        // Zero clusters for a type: internally consistent shapes, but a
        // serving dead end — must be rejected.
        let mut degenerate = exported.clone();
        degenerate.cluster_counts[0] = 0;
        degenerate.g_blocks[0] = Mat::zeros(degenerate.sizes[0], 0);
        degenerate.centroids[0] = Mat::zeros(0, degenerate.feature_dims[0]);
        degenerate.centroid_norms[0].clear();
        let c: usize = degenerate.cluster_counts.iter().sum();
        degenerate.s = Mat::zeros(c, c);
        assert!(degenerate.validate().is_err());
        // More clusters than objects is equally unfit.
        let mut oversized = exported;
        oversized.sizes[0] = 1;
        oversized.g_blocks[0] = Mat::zeros(1, oversized.cluster_counts[0]);
        assert!(oversized.validate().is_err());
    }

    #[test]
    fn centroids_separate_classes() {
        // On a clean corpus, each doc should be closest to its own
        // cluster's centroid far more often than chance.
        let (_, model, result) = fitted();
        let fitted = model.export_model(&result).unwrap();
        let docs = result.data.features(0);
        let mut agree = 0;
        for i in 0..docs.rows() {
            let mut x = docs.row(i).to_vec();
            mtrl_linalg::vecops::normalize_l1(&mut x);
            let sims: Vec<f64> = (0..fitted.cluster_counts[0])
                .map(|c| mtrl_linalg::vecops::dot(&x, fitted.centroids[0].row(c)))
                .collect();
            if mtrl_linalg::vecops::argmax(&sims) == Some(result.doc_labels[i]) {
                agree += 1;
            }
        }
        assert!(agree * 10 >= docs.rows() * 7, "{agree}/{}", docs.rows());
    }
}
