//! Train / held-out splitting of a generated corpus.
//!
//! Out-of-sample serving needs documents the model never saw at fit
//! time. [`split_corpus`] carves a generated [`MultiTypeCorpus`] into a
//! training corpus (a stratified subset of document rows; terms and
//! concepts are shared vocabulary and stay intact) and a list of
//! held-out documents, each expressed as a sparse vector over the
//! *document feature view* — the `[doc_term | doc_concept]` column
//! layout that `rhchme::MultiTypeData::features(0)` produces and that
//! `mtrl_serve::Assigner` folds in against.

use crate::corpus::MultiTypeCorpus;
use mtrl_sparse::{Csr, CsrBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A held-out document in document-feature-view coordinates.
///
/// `indices[i]` is a column of the doc view: term `t` maps to column `t`,
/// concept `c` to column `num_terms + c`. `values` carries the same
/// tf-idf-style weights the document row had in the full corpus.
#[derive(Debug, Clone)]
pub struct HeldOutDoc {
    /// Feature-view column indices (strictly increasing).
    pub indices: Vec<usize>,
    /// Matching feature values.
    pub values: Vec<f64>,
    /// Ground-truth class of the document.
    pub label: usize,
    /// Row index this document had in the original corpus.
    pub original_index: usize,
}

/// Stratified split: holds out `heldout_frac` of each class's documents
/// (seeded, deterministic) and returns the training corpus plus the
/// held-out documents in feature-view form.
///
/// Every class keeps at least two training documents so the training
/// corpus stays fittable; the held-out side gets at most
/// `class_size - 2` documents of a class.
///
/// # Panics
/// Panics if `heldout_frac` is outside `[0, 1)`, or if a nonzero
/// fraction is requested while some class has fewer than three
/// documents (it could not keep two for training and still contribute).
/// A fraction of exactly `0.0` never panics and holds nothing out.
pub fn split_corpus(
    corpus: &MultiTypeCorpus,
    heldout_frac: f64,
    seed: u64,
) -> (MultiTypeCorpus, Vec<HeldOutDoc>) {
    assert!(
        (0.0..1.0).contains(&heldout_frac),
        "heldout_frac must be in [0, 1)"
    );
    let n_docs = corpus.num_docs();
    let n_terms = corpus.num_terms();
    let mut rng = StdRng::seed_from_u64(seed);

    // Group documents by class, shuffle within each class, and take the
    // tail as held-out.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); corpus.num_classes];
    for (d, &label) in corpus.labels.iter().enumerate() {
        by_class[label].push(d);
    }
    let mut heldout_mask = vec![false; n_docs];
    for docs in &mut by_class {
        // Fisher–Yates with the split's own RNG.
        for i in (1..docs.len()).rev() {
            let j = rng.gen_range(0..=i);
            docs.swap(i, j);
        }
        let take = if heldout_frac == 0.0 {
            0
        } else {
            // A class must keep two training documents, so it needs at
            // least three to contribute anything to the held-out side.
            assert!(
                docs.len() >= 3,
                "class with {} documents cannot contribute held-out docs",
                docs.len()
            );
            (((docs.len() as f64) * heldout_frac).round() as usize).min(docs.len() - 2)
        };
        for &d in docs.iter().rev().take(take) {
            heldout_mask[d] = true;
        }
    }

    // Rebuild the train corpus from the kept rows (original order).
    let kept: Vec<usize> = (0..n_docs).filter(|&d| !heldout_mask[d]).collect();
    let train = MultiTypeCorpus {
        doc_term: select_rows(&corpus.doc_term, &kept),
        doc_concept: select_rows(&corpus.doc_concept, &kept),
        term_concept: corpus.term_concept.clone(),
        labels: kept.iter().map(|&d| corpus.labels[d]).collect(),
        num_classes: corpus.num_classes,
        corrupted_docs: corpus
            .corrupted_docs
            .iter()
            .filter_map(|d| kept.binary_search(d).ok())
            .collect(),
        config: corpus.config.clone(),
    };

    // Held-out documents in feature-view coordinates.
    let heldout: Vec<HeldOutDoc> = (0..n_docs)
        .filter(|&d| heldout_mask[d])
        .map(|d| {
            let mut indices = Vec::new();
            let mut values = Vec::new();
            let (cols, vals) = corpus.doc_term.row(d);
            for (&j, &v) in cols.iter().zip(vals) {
                indices.push(j);
                values.push(v);
            }
            let (cols, vals) = corpus.doc_concept.row(d);
            for (&j, &v) in cols.iter().zip(vals) {
                indices.push(n_terms + j);
                values.push(v);
            }
            HeldOutDoc {
                indices,
                values,
                label: corpus.labels[d],
                original_index: d,
            }
        })
        .collect();

    (train, heldout)
}

/// The rows `kept` of `m`, in that order.
fn select_rows(m: &Csr, kept: &[usize]) -> Csr {
    let nnz = kept.iter().map(|&d| m.row(d).0.len()).sum();
    let mut out = CsrBuilder::with_capacity(kept.len(), m.cols(), nnz);
    for &d in kept {
        let (cols, vals) = m.row(d);
        for (&j, &v) in cols.iter().zip(vals) {
            out.push(j, v);
        }
        out.finish_row();
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};

    fn corpus() -> MultiTypeCorpus {
        generate(&CorpusConfig {
            docs_per_class: vec![12, 12, 12],
            vocab_size: 90,
            concept_count: 30,
            doc_len_range: (25, 40),
            background_frac: 0.3,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.1,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 21,
        })
    }

    #[test]
    fn split_is_stratified_and_complete() {
        let c = corpus();
        let (train, heldout) = split_corpus(&c, 0.25, 5);
        assert_eq!(train.num_docs() + heldout.len(), c.num_docs());
        assert_eq!(heldout.len(), 9); // 3 per class
                                      // Per-class held-out counts.
        for class in 0..3 {
            let h = heldout.iter().filter(|d| d.label == class).count();
            assert_eq!(h, 3, "class {class}");
            let t = train.labels.iter().filter(|&&l| l == class).count();
            assert_eq!(t, 9, "class {class}");
        }
        // Shared vocabulary untouched.
        assert_eq!(train.num_terms(), c.num_terms());
        assert_eq!(train.num_concepts(), c.num_concepts());
        assert_eq!(train.term_concept, c.term_concept);
    }

    #[test]
    fn heldout_features_match_original_rows() {
        let c = corpus();
        let (_, heldout) = split_corpus(&c, 0.25, 5);
        let n_terms = c.num_terms();
        for doc in &heldout {
            let (cols, vals) = c.doc_term.row(doc.original_index);
            let (ccols, cvals) = c.doc_concept.row(doc.original_index);
            assert_eq!(doc.indices.len(), cols.len() + ccols.len());
            for (i, (&j, &v)) in cols.iter().zip(vals).enumerate() {
                assert_eq!(doc.indices[i], j);
                assert_eq!(doc.values[i], v);
            }
            for (i, (&j, &v)) in ccols.iter().zip(cvals).enumerate() {
                assert_eq!(doc.indices[cols.len() + i], n_terms + j);
                assert_eq!(doc.values[cols.len() + i], v);
            }
            assert_eq!(doc.label, c.labels[doc.original_index]);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let c = corpus();
        let (t1, h1) = split_corpus(&c, 0.3, 9);
        let (t2, h2) = split_corpus(&c, 0.3, 9);
        assert_eq!(t1.labels, t2.labels);
        assert_eq!(
            h1.iter().map(|d| d.original_index).collect::<Vec<_>>(),
            h2.iter().map(|d| d.original_index).collect::<Vec<_>>()
        );
        let (_, h3) = split_corpus(&c, 0.3, 10);
        assert_ne!(
            h1.iter().map(|d| d.original_index).collect::<Vec<_>>(),
            h3.iter().map(|d| d.original_index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupted_docs_remapped() {
        let c = corpus();
        let (train, _) = split_corpus(&c, 0.25, 5);
        for &d in &train.corrupted_docs {
            assert!(d < train.num_docs());
        }
    }

    /// The triplet rebuild of the kept rows that `select_rows` replaced.
    fn coo_rows(m: &Csr, kept: &[usize]) -> Csr {
        let mut coo = mtrl_sparse::Coo::new(kept.len(), m.cols());
        for (new_row, &d) in kept.iter().enumerate() {
            let (cols, vals) = m.row(d);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(new_row, j, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn train_rows_match_coo_rebuild() {
        use crate::corpus::coo_oracle::same_bits;
        use crate::corpus::tests::{eval_shapes, random_config};
        let configs = (0..32).map(random_config).chain(eval_shapes(5));
        for (i, cfg) in configs.enumerate() {
            if cfg.docs_per_class.iter().any(|&n| n < 3) {
                continue;
            }
            let c = generate(&cfg);
            let frac = [0.0, 0.2, 0.35, 0.9][i % 4];
            let (train, heldout) = split_corpus(&c, frac, i as u64);
            let held: Vec<usize> = heldout.iter().map(|d| d.original_index).collect();
            let kept: Vec<usize> = (0..c.num_docs()).filter(|d| !held.contains(d)).collect();
            assert!(same_bits(&train.doc_term, &coo_rows(&c.doc_term, &kept)));
            assert!(same_bits(
                &train.doc_concept,
                &coo_rows(&c.doc_concept, &kept)
            ));
            let remapped: Vec<usize> = kept
                .iter()
                .enumerate()
                .filter(|(_, d)| c.corrupted_docs.contains(d))
                .map(|(new, _)| new)
                .collect();
            assert_eq!(train.corrupted_docs, remapped);
        }
    }

    #[test]
    fn zero_fraction_keeps_everything() {
        let c = corpus();
        let (train, heldout) = split_corpus(&c, 0.0, 1);
        assert_eq!(train.num_docs(), c.num_docs());
        assert!(heldout.is_empty());
    }
}
