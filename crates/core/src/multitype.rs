//! Multi-type relational data assembly (paper Sec. I-A).
//!
//! `MultiTypeData` holds `K` object types and the observed inter-type
//! co-occurrence matrices `R_kl` (`k < l`). From it the engine obtains:
//!
//! * the symmetric block matrix `R ∈ R^{n x n}` with zero diagonal blocks
//!   and `R_lk = R_klᵀ`;
//! * per-type *feature views* `X_k` — the concatenation of object `k`'s
//!   relations to every other type — used for k-means initialisation, pNN
//!   graphs and subspace learning (the paper's `x_i^k ∈ R^D`);
//! * the block layouts of the object dimension (`n = Σ n_k`) and the
//!   cluster dimension (`c = Σ c_k`).

use crate::error::RhchmeError;
use crate::Result;
use mtrl_linalg::block::BlockSpec;
use mtrl_linalg::Mat;
use mtrl_sparse::Csr;
use std::collections::HashMap;
use std::sync::Arc;

/// One relation block of a feature view (see
/// [`MultiTypeData::feature_blocks`]).
pub(crate) struct FeatureBlock<'a> {
    /// The relation as stored, `n_min(k,l) x n_max(k,l)`.
    pub(crate) rel: &'a Csr,
    /// Whether the view reads `rel` transposed (its partner type comes
    /// first).
    pub(crate) transposed: bool,
    /// The block's first column in the view.
    pub(crate) offset: usize,
}

impl FeatureBlock<'_> {
    /// Columns the block spans in the view.
    pub(crate) fn width(&self) -> usize {
        if self.transposed {
            self.rel.rows()
        } else {
            self.rel.cols()
        }
    }
}

/// The cluster count of a feature type with `m` objects: `m / divisor`
/// (a divisor of 0 reads as 1), clamped to `[2, 30]`.
pub(crate) fn feature_clusters(m: usize, divisor: usize) -> usize {
    (m / divisor.max(1)).clamp(2, 30)
}

/// A multi-type relational dataset: `K` types plus pairwise relations.
#[derive(Debug, Clone)]
pub struct MultiTypeData {
    sizes: Vec<usize>,
    cluster_counts: Vec<usize>,
    /// Relations keyed by `(k, l)` with `k < l`; matrix is `n_k x n_l`.
    /// Shared by the re-specs of [`Self::with_cluster_counts`].
    relations: Arc<HashMap<(usize, usize), Csr>>,
    spec: BlockSpec,
    cluster_spec: BlockSpec,
}

impl MultiTypeData {
    /// Create a dataset from per-type sizes, requested per-type cluster
    /// counts, and the list of observed relations `(k, l, R_kl)` with
    /// `k < l`.
    ///
    /// # Errors
    /// Returns [`RhchmeError::InvalidData`] for inconsistent shapes,
    /// out-of-range type indices, duplicate or self relations, a
    /// relation holding a NaN or infinite value (every fit, k-means
    /// start included, reads these values), and
    /// [`RhchmeError::InvalidConfig`] for cluster counts `< 2` or larger
    /// than the type size.
    pub fn new(
        sizes: Vec<usize>,
        cluster_counts: Vec<usize>,
        relations: Vec<(usize, usize, Csr)>,
    ) -> Result<Self> {
        let k_types = sizes.len();
        if k_types < 2 {
            return Err(RhchmeError::InvalidData(
                "need at least 2 object types".into(),
            ));
        }
        if cluster_counts.len() != k_types {
            return Err(RhchmeError::InvalidConfig(format!(
                "{} cluster counts for {} types",
                cluster_counts.len(),
                k_types
            )));
        }
        for (k, (&nk, &ck)) in sizes.iter().zip(&cluster_counts).enumerate() {
            if ck < 2 {
                return Err(RhchmeError::InvalidConfig(format!(
                    "type {k}: need at least 2 clusters"
                )));
            }
            if ck > nk {
                return Err(RhchmeError::InvalidConfig(format!(
                    "type {k}: {ck} clusters for {nk} objects"
                )));
            }
        }
        let mut map = HashMap::new();
        for (k, l, m) in relations {
            if k >= l || l >= k_types {
                return Err(RhchmeError::InvalidData(format!(
                    "relation ({k},{l}) out of order or out of range"
                )));
            }
            if m.shape() != (sizes[k], sizes[l]) {
                return Err(RhchmeError::InvalidData(format!(
                    "relation ({k},{l}) has shape {:?}, expected ({}, {})",
                    m.shape(),
                    sizes[k],
                    sizes[l]
                )));
            }
            if (0..m.rows()).any(|i| !m.row(i).1.iter().all(|v| v.is_finite())) {
                return Err(RhchmeError::InvalidData(format!(
                    "relation ({k},{l}) has a non-finite value"
                )));
            }
            if map.insert((k, l), m).is_some() {
                return Err(RhchmeError::InvalidData(format!(
                    "duplicate relation ({k},{l})"
                )));
            }
        }
        if map.is_empty() {
            return Err(RhchmeError::InvalidData("no relations supplied".into()));
        }
        let spec = BlockSpec::from_sizes(&sizes);
        let cluster_spec = BlockSpec::from_sizes(&cluster_counts);
        Ok(MultiTypeData {
            sizes,
            cluster_counts,
            relations: Arc::new(map),
            spec,
            cluster_spec,
        })
    }

    /// Build the canonical three-type dataset (documents, terms, concepts)
    /// from a generated corpus. Term/concept cluster counts follow the
    /// paper's rule of thumb (`m/divisor`, clamped to `[2, 30]`; the paper
    /// explores `m/10` to `m/100`).
    ///
    /// # Errors
    /// As [`Self::new`]; a relation with a NaN or infinite value is
    /// rejected here, before any fit reads it.
    pub fn from_corpus(
        corpus: &mtrl_datagen::MultiTypeCorpus,
        feature_cluster_divisor: usize,
    ) -> Result<Self> {
        let (terms, concepts) = (corpus.num_terms(), corpus.num_concepts());
        MultiTypeData::new(
            vec![corpus.num_docs(), terms, concepts],
            vec![
                corpus.num_classes,
                feature_clusters(terms, feature_cluster_divisor),
                feature_clusters(concepts, feature_cluster_divisor),
            ],
            vec![
                (0, 1, corpus.doc_term.clone()),
                (0, 2, corpus.doc_concept.clone()),
                (1, 2, corpus.term_concept.clone()),
            ],
        )
    }

    /// The same dataset with different requested cluster counts — the
    /// cheap re-spec used by the consensus-ensemble generator's random-k
    /// perturbation. Relations (and therefore `R`, feature views and all
    /// object-dimension graphs) are shared content, held once by every
    /// re-spec; only the cluster block layout changes.
    ///
    /// # Errors
    /// Returns [`RhchmeError::InvalidConfig`] for counts `< 2`, larger
    /// than the type size, or of the wrong length.
    pub fn with_cluster_counts(&self, cluster_counts: Vec<usize>) -> Result<Self> {
        if cluster_counts.len() != self.sizes.len() {
            return Err(RhchmeError::InvalidConfig(format!(
                "{} cluster counts for {} types",
                cluster_counts.len(),
                self.sizes.len()
            )));
        }
        for (k, (&nk, &ck)) in self.sizes.iter().zip(&cluster_counts).enumerate() {
            if ck < 2 {
                return Err(RhchmeError::InvalidConfig(format!(
                    "type {k}: need at least 2 clusters"
                )));
            }
            if ck > nk {
                return Err(RhchmeError::InvalidConfig(format!(
                    "type {k}: {ck} clusters for {nk} objects"
                )));
            }
        }
        let cluster_spec = BlockSpec::from_sizes(&cluster_counts);
        Ok(MultiTypeData {
            sizes: self.sizes.clone(),
            cluster_counts,
            relations: self.relations.clone(),
            spec: self.spec.clone(),
            cluster_spec,
        })
    }

    /// Number of object types `K`.
    pub fn num_types(&self) -> usize {
        self.sizes.len()
    }

    /// Per-type object counts.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Per-type cluster counts.
    pub fn cluster_counts(&self) -> &[usize] {
        &self.cluster_counts
    }

    /// Total object count `n`.
    pub fn total_objects(&self) -> usize {
        self.spec.total()
    }

    /// Total cluster count `c`.
    pub fn total_clusters(&self) -> usize {
        self.cluster_spec.total()
    }

    /// Object-dimension block layout.
    pub fn spec(&self) -> &BlockSpec {
        &self.spec
    }

    /// Cluster-dimension block layout.
    pub fn cluster_spec(&self) -> &BlockSpec {
        &self.cluster_spec
    }

    /// The relation `R_kl` (`k < l`) if observed.
    pub fn relation(&self, k: usize, l: usize) -> Option<&Csr> {
        self.relations.get(&(k, l))
    }

    /// Assemble the dense symmetric inter-type matrix `R` (zero diagonal
    /// blocks, `R_lk = R_klᵀ`) — the decomposition target of Eq. (15).
    ///
    /// Kept for the `*_dense_reference` engine path and small problems;
    /// the default fit path uses [`Self::assemble_r_csr`], which never
    /// materialises the `n x n` buffer.
    pub fn assemble_r(&self) -> Mat {
        let n = self.total_objects();
        let mut r = Mat::zeros(n, n);
        for (&(k, l), m) in self.relations.iter() {
            let (ro, co) = (self.spec.offset(k), self.spec.offset(l));
            for (i, j, v) in m.iter() {
                r[(ro + i, co + j)] = v;
                r[(co + j, ro + i)] = v;
            }
        }
        r
    }

    /// [`Self::assemble_r`] as CSR, `O(nnz)` storage: relations are
    /// placed block-wise (and transposed for the lower triangle) without
    /// ever densifying. This is what the sparse-first engine consumes —
    /// the stored entries are exactly the dense assembly's nonzeros, in
    /// the same row-major order, so the two assemblies are bit-equal.
    pub fn assemble_r_csr(&self) -> Csr {
        let n = self.total_objects();
        let k_types = self.num_types();
        // Per (row-type, col-type) block: the relation, transposed when
        // it is stored the other way. Transposes cost O(nnz) once.
        let mut blocks: HashMap<(usize, usize), Csr> = HashMap::new();
        for (&(k, l), m) in self.relations.iter() {
            blocks.insert((l, k), m.transpose());
        }
        let nnz = 2 * self.relations.values().map(Csr::nnz).sum::<usize>();
        let mut b = mtrl_sparse::CsrBuilder::with_capacity(n, n, nnz);
        for k in 0..k_types {
            for i in 0..self.sizes[k] {
                // Partner blocks in ascending type order means strictly
                // ascending column offsets within the row.
                for l in 0..k_types {
                    if l == k {
                        continue;
                    }
                    let co = self.spec.offset(l);
                    let (cols, vals) = if k < l {
                        match self.relations.get(&(k, l)) {
                            Some(rel) => rel.row(i),
                            None => continue,
                        }
                    } else {
                        match blocks.get(&(k, l)) {
                            Some(t) => t.row(i),
                            None => continue,
                        }
                    };
                    for (&j, &v) in cols.iter().zip(vals) {
                        b.push(co + j, v);
                    }
                }
                b.finish_row();
            }
        }
        b.build()
    }

    /// The relation blocks of type `k`'s feature view, left to right: one
    /// per observed relation with another type, in ascending partner
    /// order, each with its first column in the view. A block is read as
    /// stored (`R_kl`, `k < l`) or transposed (`R_lkᵀ`).
    pub(crate) fn feature_blocks(&self, k: usize) -> Vec<FeatureBlock<'_>> {
        assert!(k < self.num_types(), "type index out of range");
        let mut offset = 0;
        let mut blocks = Vec::new();
        for l in (0..self.num_types()).filter(|&l| l != k) {
            if let Some(rel) = self.relations.get(&(k.min(l), k.max(l))) {
                blocks.push(FeatureBlock {
                    rel,
                    transposed: l < k,
                    offset,
                });
                offset += self.sizes[l];
            }
        }
        blocks
    }

    /// Dense feature view of type `k`: the horizontal concatenation of all
    /// its observed relations (transposed where needed), one object per
    /// row. This is the `x_i^k ∈ R^D` representation the paper feeds to
    /// both the pNN graph and the subspace learner. Each stored entry is
    /// written once, straight into the view.
    pub fn features(&self, k: usize) -> Mat {
        let blocks = self.feature_blocks(k);
        assert!(!blocks.is_empty(), "type {k} participates in no relations");
        let width = blocks.iter().map(|b| b.width()).sum();
        let mut out = Mat::zeros(self.sizes[k], width);
        for b in &blocks {
            for (i, j, v) in b.rel.iter() {
                let (row, col) = if b.transposed { (j, i) } else { (i, j) };
                out[(row, b.offset + col)] = v;
            }
        }
        out
    }

    /// All feature views, indexable by type.
    pub fn all_features(&self) -> Vec<Mat> {
        (0..self.num_types()).map(|k| self.features(k)).collect()
    }

    /// Extract per-type labels from a stacked membership matrix `G`:
    /// object `i` of type `k` is assigned to the argmax entry within its
    /// type's cluster columns.
    pub fn labels_from_membership(&self, g: &Mat, k: usize) -> Vec<usize> {
        let rows = self.spec.range(k);
        let cols = self.cluster_spec.range(k);
        rows.map(|i| {
            let row = &g.row(i)[cols.clone()];
            mtrl_linalg::vecops::argmax(row).unwrap_or(0)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_datagen::corpus::{generate, CorpusConfig};

    fn tiny_corpus() -> mtrl_datagen::MultiTypeCorpus {
        generate(&CorpusConfig {
            docs_per_class: vec![6, 6],
            vocab_size: 40,
            concept_count: 10,
            doc_len_range: (20, 30),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 5,
        })
    }

    fn small_relation(rows: usize, cols: usize, seed: u64) -> Csr {
        let dense = mtrl_linalg::random::rand_uniform(rows, cols, 0.0, 1.0, seed);
        Csr::from_dense(&dense, 0.5) // ~50% sparse
    }

    #[test]
    fn from_corpus_shapes() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        assert_eq!(d.num_types(), 3);
        assert_eq!(d.sizes(), &[12, 40, 10]);
        assert_eq!(d.total_objects(), 62);
        assert_eq!(d.cluster_counts()[0], 2);
        assert!(d.cluster_counts()[1] >= 2);
    }

    #[test]
    fn assemble_r_symmetric_zero_diag_blocks() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        let r = d.assemble_r();
        assert_eq!(r.shape(), (62, 62));
        // Symmetry.
        let rt = r.transpose();
        assert!(r.approx_eq(&rt, 1e-12));
        // Diagonal blocks are zero.
        for k in 0..3 {
            let range = d.spec().range(k);
            for i in range.clone() {
                for j in range.clone() {
                    assert_eq!(r[(i, j)], 0.0);
                }
            }
        }
        // Off-diagonal block content matches the relation.
        let dt = c.doc_term.to_dense();
        for i in 0..12 {
            for j in 0..40 {
                assert_eq!(r[(i, 12 + j)], dt[(i, j)]);
            }
        }
    }

    #[test]
    fn assemble_r_csr_bit_equal_to_dense_assembly() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        let sparse = d.assemble_r_csr();
        let dense = d.assemble_r();
        assert_eq!(sparse.shape(), (62, 62));
        // Same nonzeros, same order, bit-equal values.
        assert_eq!(sparse, Csr::from_dense(&dense, 0.0));
        assert!(sparse.is_symmetric(0.0));
        // Two-type datasets assemble too.
        let r = small_relation(5, 7, 9);
        let two = MultiTypeData::new(vec![5, 7], vec![2, 3], vec![(0, 1, r)]).unwrap();
        assert_eq!(
            two.assemble_r_csr(),
            Csr::from_dense(&two.assemble_r(), 0.0)
        );
    }

    #[test]
    fn features_concatenate_relations() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        let fd = d.features(0); // docs: [doc_term | doc_concept]
        assert_eq!(fd.shape(), (12, 50));
        let ft = d.features(1); // terms: [doc_termᵀ | term_concept]
        assert_eq!(ft.shape(), (40, 22));
        let fc = d.features(2); // concepts: [doc_conceptᵀ | term_conceptᵀ]
        assert_eq!(fc.shape(), (10, 52));
        // Spot-check content equivalence.
        let dt = c.doc_term.to_dense();
        assert_eq!(fd[(3, 7)], dt[(3, 7)]);
        assert_eq!(ft[(7, 3)], dt[(3, 7)]);
    }

    /// The feature view as densified relations, transposed where needed
    /// and concatenated left to right.
    fn hstacked_features(d: &MultiTypeData, k: usize) -> Mat {
        let blocks: Vec<Mat> = (0..d.num_types())
            .filter(|&l| l != k)
            .filter_map(|l| {
                let rel = d.relation(k.min(l), k.max(l))?;
                Some(if k < l {
                    rel.to_dense()
                } else {
                    rel.transpose().to_dense()
                })
            })
            .collect();
        let rows: Vec<Vec<f64>> = (0..d.sizes()[k])
            .map(|i| blocks.iter().flat_map(|b| b.row(i).to_vec()).collect())
            .collect();
        Mat::from_rows(&rows).unwrap()
    }

    #[test]
    fn features_equal_the_concatenated_dense_blocks() {
        let bits = |m: &Mat| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let c = tiny_corpus();
        let three = MultiTypeData::from_corpus(&c, 10).unwrap();
        // Four types with one pair unrelated, signed values and a stored
        // −0: offsets must skip the missing block and keep every bit.
        let signed = |rows, cols, seed| {
            let dense = mtrl_linalg::random::rand_uniform(rows, cols, -1.0, 1.0, seed);
            Csr::from_dense(&dense, 0.4)
        };
        let neg_zero = Csr::from_raw_parts(
            7,
            4,
            vec![0, 1, 1, 2, 2, 2, 2, 3],
            vec![2, 0, 3],
            vec![-0.0, 0.5, -2.0],
        );
        let four = MultiTypeData::new(
            vec![5, 6, 7, 4],
            vec![2, 2, 2, 2],
            vec![
                (0, 1, signed(5, 6, 3)),
                (0, 3, signed(5, 4, 4)),
                (1, 2, signed(6, 7, 5)),
                (2, 3, neg_zero),
            ],
        )
        .unwrap();
        for d in [&three, &four] {
            for k in 0..d.num_types() {
                let got = d.features(k);
                let want = hstacked_features(d, k);
                assert_eq!(got.shape(), want.shape(), "type {k}");
                assert_eq!(bits(&got), bits(&want), "type {k}");
            }
        }
    }

    #[test]
    fn validation_errors() {
        // Too few types.
        assert!(MultiTypeData::new(vec![5], vec![2], vec![]).is_err());
        // Bad cluster count.
        let r = small_relation(5, 6, 1);
        assert!(MultiTypeData::new(vec![5, 6], vec![1, 2], vec![(0, 1, r.clone())]).is_err());
        assert!(MultiTypeData::new(vec![5, 6], vec![2, 7], vec![(0, 1, r.clone())]).is_err());
        // Relation shape mismatch.
        assert!(MultiTypeData::new(vec![6, 6], vec![2, 2], vec![(0, 1, r.clone())]).is_err());
        // Out-of-order key.
        assert!(MultiTypeData::new(vec![6, 5], vec![2, 2], vec![(1, 0, r.clone())]).is_err());
        // Duplicate.
        assert!(
            MultiTypeData::new(vec![5, 6], vec![2, 2], vec![(0, 1, r.clone()), (0, 1, r)]).is_err()
        );
        // Empty relations.
        assert!(MultiTypeData::new(vec![5, 6], vec![2, 2], vec![]).is_err());
    }

    #[test]
    fn labels_from_membership_blocks() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        let n = d.total_objects();
        let cc = d.total_clusters();
        let mut g = Mat::zeros(n, cc);
        // Put every doc in its class cluster.
        for i in 0..12 {
            g[(i, usize::from(i >= 6))] = 1.0;
        }
        let labels = d.labels_from_membership(&g, 0);
        assert_eq!(labels.len(), 12);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[11], 1);
    }

    #[test]
    fn with_cluster_counts_respects_relations() {
        let c = tiny_corpus();
        let d = MultiTypeData::from_corpus(&c, 10).unwrap();
        let mut counts = d.cluster_counts().to_vec();
        counts[0] = 4;
        let d4 = d.with_cluster_counts(counts.clone()).unwrap();
        assert_eq!(d4.cluster_counts(), counts.as_slice());
        assert_eq!(d4.sizes(), d.sizes());
        assert_eq!(d4.total_clusters(), d.total_clusters() + 2);
        // Object-side data is unchanged.
        assert_eq!(d4.assemble_r_csr(), d.assemble_r_csr());
        // Validation still applies.
        assert!(d.with_cluster_counts(vec![2, 2]).is_err());
        assert!(d.with_cluster_counts(vec![1, 2, 2]).is_err());
        assert!(d.with_cluster_counts(vec![2, 2, 99]).is_err());
    }

    #[test]
    fn two_type_dataset_supported() {
        let r = small_relation(8, 10, 2);
        let d = MultiTypeData::new(vec![8, 10], vec![2, 3], vec![(0, 1, r)]).unwrap();
        assert_eq!(d.total_objects(), 18);
        assert_eq!(d.total_clusters(), 5);
        let f0 = d.features(0);
        assert_eq!(f0.shape(), (8, 10));
        let f1 = d.features(1);
        assert_eq!(f1.shape(), (10, 8));
    }
}
