//! Out-of-sample fold-in: mapping unseen objects to cluster posteriors.
//!
//! An unseen object of type `k` arrives as a sparse vector over type
//! `k`'s feature view (for documents: `[terms | concepts]`, the layout
//! `rhchme::MultiTypeData::features(0)` uses). The [`Assigner`] scores it
//! against the fitted model's per-type centroids by cosine similarity in
//! the learned subspace and normalises the non-negative similarities to a
//! probability vector — soft co-association scores in the spirit of
//! Huang et al.'s probability-trajectory ensembles, rather than only a
//! hard label. Clusters that captured no mass at fit time (near-zero
//! [`FittedModel::centroid_norms`]) are excluded from scoring.
//!
//! This is the serving hot path: one fold-in is `O(nnz(x) · c_k)` with no
//! allocation beyond the posterior vector, no iteration, and no touching
//! of the training data.

use crate::error::ServeError;
use mtrl_linalg::vecops::{argmax, sparse_dense_dot};
use rhchme::export::FittedModel;

/// A sparse feature vector over one type's feature view.
#[derive(Debug, Clone)]
pub struct SparseVec {
    /// Feature column indices.
    pub indices: Vec<usize>,
    /// Matching values.
    pub values: Vec<f64>,
}

impl SparseVec {
    /// Build from parallel index/value slices.
    ///
    /// # Errors
    /// Returns [`ServeError::BadRequest`] when lengths differ or a
    /// value is non-finite.
    pub fn new(indices: Vec<usize>, values: Vec<f64>) -> Result<Self, ServeError> {
        if indices.len() != values.len() {
            return Err(ServeError::BadRequest(format!(
                "{} indices with {} values",
                indices.len(),
                values.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest("non-finite feature value".into()));
        }
        Ok(SparseVec { indices, values })
    }

    /// Build from a dense slice, keeping entries with `|v| > 0`.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (j, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                indices.push(j);
                values.push(v);
            }
        }
        SparseVec { indices, values }
    }

    /// ℓ2 norm of the stored values.
    pub(crate) fn norm2(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// Fold-in predictor over a fitted model.
///
/// Cheap to clone conceptually (it owns the model); the serve engine
/// shares one instance per registered model behind an `Arc`.
#[derive(Debug, Clone)]
pub struct Assigner {
    model: FittedModel,
    /// Per type: clusters with non-degenerate centroids.
    active: Vec<Vec<usize>>,
}

impl Assigner {
    /// Wrap a validated model for serving.
    ///
    /// # Errors
    /// Returns [`ServeError::Corrupt`] if the model fails validation.
    pub fn new(model: FittedModel) -> Result<Self, ServeError> {
        model
            .validate()
            .map_err(|e| ServeError::Corrupt(e.to_string()))?;
        let active = model
            .centroid_norms
            .iter()
            .map(|norms| {
                norms
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 1e-12)
                    .map(|(c, _)| c)
                    .collect()
            })
            .collect();
        Ok(Assigner { model, active })
    }

    /// Borrow the underlying model.
    pub fn model(&self) -> &FittedModel {
        &self.model
    }

    /// Fold one unseen object of type `type_index` into the clustering.
    ///
    /// Returns the posterior over that type's clusters: entries are
    /// finite, non-negative, and sum to 1. An all-zero or out-of-subspace
    /// vector gets the uniform posterior over active clusters — maximum
    /// entropy is the honest answer to "no evidence".
    ///
    /// # Errors
    /// Returns [`ServeError::BadRequest`] for a bad type index or an
    /// index beyond the type's feature dimension.
    pub fn assign(&self, type_index: usize, x: &SparseVec) -> Result<Vec<f64>, ServeError> {
        let k = self.model.num_types();
        if type_index >= k {
            return Err(ServeError::BadRequest(format!(
                "type index {type_index} out of range (model has {k} types)"
            )));
        }
        let dim = self.model.feature_dims[type_index];
        if let Some(&bad) = x.indices.iter().find(|&&j| j >= dim) {
            return Err(ServeError::BadRequest(format!(
                "feature index {bad} out of range (type {type_index} has dimension {dim})"
            )));
        }
        let centroids = &self.model.centroids[type_index];
        let c = centroids.rows();
        let active = &self.active[type_index];
        let norm = x.norm2();
        let mut posterior = vec![0.0; c];
        if norm <= 1e-300 || active.is_empty() {
            uniform_over(&mut posterior, active, c);
            return Ok(posterior);
        }
        let inv_norm = 1.0 / norm;
        let mut total = 0.0;
        for &cluster in active {
            // Cosine: centroid rows are unit-ℓ2 by construction.
            let sim = sparse_dense_dot(&x.indices, &x.values, centroids.row(cluster)) * inv_norm;
            let score = sim.max(0.0);
            posterior[cluster] = score;
            total += score;
        }
        if total <= 1e-300 {
            uniform_over(&mut posterior, active, c);
        } else {
            let inv = 1.0 / total;
            for p in &mut posterior {
                *p *= inv;
            }
        }
        Ok(posterior)
    }

    /// Fold in a batch; one posterior per input, in order.
    ///
    /// # Errors
    /// Fails on the first invalid document (all-or-nothing, so a batch
    /// response never silently drops entries).
    pub fn assign_batch(
        &self,
        type_index: usize,
        docs: &[SparseVec],
    ) -> Result<Vec<Vec<f64>>, ServeError> {
        docs.iter().map(|x| self.assign(type_index, x)).collect()
    }

    /// Hard labels (argmax) for a batch of posteriors.
    pub fn labels(posteriors: &[Vec<f64>]) -> Vec<usize> {
        posteriors.iter().map(|p| argmax(p).unwrap_or(0)).collect()
    }
}

fn uniform_over(posterior: &mut [f64], active: &[usize], c: usize) {
    if active.is_empty() {
        let u = 1.0 / c.max(1) as f64;
        for p in posterior.iter_mut() {
            *p = u;
        }
    } else {
        let u = 1.0 / active.len() as f64;
        for &cluster in active {
            posterior[cluster] = u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_fitted_model;

    #[test]
    fn posterior_is_a_distribution() {
        let model = tiny_fitted_model(41);
        let assigner = Assigner::new(model).unwrap();
        let x = SparseVec::new(vec![0, 3, 10], vec![0.5, 1.0, 0.25]).unwrap();
        let p = assigner.assign(0, &x).unwrap();
        assert_eq!(p.len(), assigner.model().cluster_counts[0]);
        assert!(p.iter().all(|&v| v.is_finite() && v >= 0.0));
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
    }

    #[test]
    fn empty_vector_gets_uniform() {
        let model = tiny_fitted_model(42);
        let assigner = Assigner::new(model).unwrap();
        let p = assigner
            .assign(0, &SparseVec::new(vec![], vec![]).unwrap())
            .unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        let nonzero: Vec<f64> = p.iter().copied().filter(|&v| v > 0.0).collect();
        let first = nonzero[0];
        assert!(nonzero.iter().all(|&v| (v - first).abs() < 1e-12));
    }

    #[test]
    fn invalid_requests_rejected() {
        let model = tiny_fitted_model(43);
        let dim0 = model.feature_dims[0];
        let assigner = Assigner::new(model).unwrap();
        assert!(matches!(
            assigner.assign(9, &SparseVec::from_dense(&[1.0])),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            assigner.assign(0, &SparseVec::new(vec![dim0], vec![1.0]).unwrap()),
            Err(ServeError::BadRequest(_))
        ));
        assert!(SparseVec::new(vec![0], vec![]).is_err());
        assert!(SparseVec::new(vec![0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn all_types_assignable() {
        // Fold-in works for terms and concepts too, not just documents —
        // that is the "multi-aspect" part.
        let model = tiny_fitted_model(44);
        let assigner = Assigner::new(model).unwrap();
        for t in 0..assigner.model().num_types() {
            let dim = assigner.model().feature_dims[t];
            let x = SparseVec::from_dense(&vec![0.1; dim]);
            let p = assigner.assign(t, &x).unwrap();
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "type {t}");
        }
    }

    #[test]
    fn batch_matches_single() {
        let model = tiny_fitted_model(45);
        let assigner = Assigner::new(model).unwrap();
        let docs: Vec<SparseVec> = (0..5)
            .map(|i| SparseVec::new(vec![i, i + 2], vec![1.0, 0.5]).unwrap())
            .collect();
        let batch = assigner.assign_batch(0, &docs).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(batch[i], assigner.assign(0, doc).unwrap());
        }
        let labels = Assigner::labels(&batch);
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn sparse_dense_agree() {
        let model = tiny_fitted_model(46);
        let dim = model.feature_dims[0];
        let assigner = Assigner::new(model).unwrap();
        let mut dense = vec![0.0; dim];
        dense[1] = 0.7;
        dense[4] = 0.3;
        let sparse = SparseVec::new(vec![1, 4], vec![0.7, 0.3]).unwrap();
        assert_eq!(
            assigner.assign(0, &SparseVec::from_dense(&dense)).unwrap(),
            assigner.assign(0, &sparse).unwrap()
        );
    }
}
