//! Streaming corpus generation: timestamped batches with optional
//! concept drift.
//!
//! A production deployment of the reproduction never sees its corpus at
//! once — documents arrive continuously, and the term distribution they
//! are drawn from may *drift*. [`generate_stream`] produces exactly that
//! workload from the latent topic model of [`crate::corpus::generate`]:
//!
//! 1. an **initial corpus** (the training side a model is first fitted
//!    on), bit-identical to `generate(&cfg.base)`;
//! 2. a sequence of [`StreamBatch`]es drawn from the *same* latent model
//!    (same vocabulary layout, same term→concept mapping, same
//!    relatedness weights) with fresh documents;
//! 3. optional **concept drift**: from batch `drift_after` onwards the
//!    class anchor windows rotate by `drift_shift` of a class block, so
//!    every class mean moves part-way towards its neighbour's old
//!    position. A model fitted pre-drift starts confusing adjacent
//!    classes — the scenario `mtrl-stream`'s drift-triggered warm refit
//!    exists for.
//!
//! Batch rows are tf-idf weighted with the **initial corpus's** idf and
//! row-ℓ2 normalised — the same convention a serving system would use
//! (document frequencies are fixed at fit time; a fold-in request cannot
//! re-weight the corpus).

use crate::corpus::{
    generate_with_sampler, idf_from_df, CorpusConfig, MultiTypeCorpus, TokenCounts, TopicSampler,
};
use mtrl_sparse::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the streaming generator.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The initial (training) corpus configuration; its `seed` drives
    /// the whole stream.
    pub base: CorpusConfig,
    /// Number of batches to emit after the initial corpus.
    pub batches: usize,
    /// Documents per batch.
    pub docs_per_batch: usize,
    /// Batch index (0-based) from which drift applies; `None` disables.
    pub drift_after: Option<usize>,
    /// Anchor-window rotation as a fraction of one class block in
    /// `[0, 1]`; `0.5` moves every class mean halfway towards its
    /// neighbour's old position.
    pub drift_shift: f64,
}

/// One timestamped batch of newly arrived documents, in relation
/// coordinates over the fixed term / concept vocabularies.
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Monotone batch sequence number (0 = first post-training batch).
    pub timestamp: u64,
    /// Per-document sparse tf-idf rows over terms (indices strictly
    /// increasing, row-ℓ2 normalised).
    pub doc_term: Vec<(Vec<usize>, Vec<f64>)>,
    /// Per-document sparse rows over concepts (same conventions).
    pub doc_concept: Vec<(Vec<usize>, Vec<f64>)>,
    /// Ground-truth class per document (synthetic-evaluation side
    /// channel; a consumer must not feed it back into the model).
    pub labels: Vec<usize>,
    /// Whether this batch was drawn from the drifted distribution.
    pub drifted: bool,
}

impl StreamBatch {
    /// Number of documents in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Document `i` as one sparse vector over the document *feature
    /// view* (`[terms | concepts]` — the layout
    /// `rhchme::MultiTypeData::features(0)` and `mtrl_serve::Assigner`
    /// use), given the vocabulary width `num_terms`.
    pub fn feature_row(&self, i: usize, num_terms: usize) -> (Vec<usize>, Vec<f64>) {
        let (tc, tv) = &self.doc_term[i];
        let (cc, cv) = &self.doc_concept[i];
        let mut indices = Vec::with_capacity(tc.len() + cc.len());
        let mut values = Vec::with_capacity(tc.len() + cc.len());
        indices.extend_from_slice(tc);
        values.extend_from_slice(tv);
        indices.extend(cc.iter().map(|&j| num_terms + j));
        values.extend_from_slice(cv);
        (indices, values)
    }
}

/// Generate the initial corpus plus `cfg.batches` streaming batches.
///
/// The initial corpus is bit-identical to `generate(&cfg.base)`; batches
/// continue the same RNG stream, draw classes uniformly, inherit the
/// base configuration's corruption rate, and apply the drift shift from
/// `cfg.drift_after` onwards.
///
/// # Panics
/// Panics on degenerate configurations (propagated from the corpus
/// generator) or a `drift_shift` outside `[0, 1]`.
pub fn generate_stream(cfg: &StreamConfig) -> (MultiTypeCorpus, Vec<StreamBatch>) {
    assert!(
        (0.0..=1.0).contains(&cfg.drift_shift),
        "drift_shift must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.base.seed);
    let sampler = TopicSampler::new(&cfg.base, &mut rng);
    let corpus = generate_with_sampler(&cfg.base, &sampler, &mut rng);

    // Serving-side idf: fixed at fit time from the initial corpus (a
    // tf-idf entry is nonzero iff the raw count was, so document
    // frequencies are recoverable from the stored matrix).
    let v = corpus.num_terms();
    let mut df = vec![0usize; v];
    for i in 0..corpus.num_docs() {
        for &t in corpus.doc_term.row(i).0 {
            df[t] += 1;
        }
    }
    let idf = idf_from_df(&df, corpus.num_docs());

    let k = sampler.num_classes();
    let shift_terms = sampler.drift_shift_terms(cfg.drift_shift);
    let relatedness = sampler.relatedness();

    let mut terms = TokenCounts::new(v);
    let mut concepts = TokenCounts::new(corpus.num_concepts());
    let mut batches = Vec::with_capacity(cfg.batches);
    for b in 0..cfg.batches {
        let drifted = cfg.drift_after.is_some_and(|at| b >= at);
        let shift = if drifted { shift_terms } else { 0 };
        let mut doc_term = Vec::with_capacity(cfg.docs_per_batch);
        let mut doc_concept = Vec::with_capacity(cfg.docs_per_batch);
        let mut labels = Vec::with_capacity(cfg.docs_per_batch);
        for _ in 0..cfg.docs_per_batch {
            let class = rng.gen_range(0..k);
            let corrupted = rng.gen_range(0.0..1.0) < cfg.base.corrupt_frac;
            sampler.sample_doc(&mut rng, class, corrupted, shift, &mut terms, &mut concepts);
            doc_term.push(sorted_normalized(&mut terms, |t, c| c as f64 * idf[t]));
            doc_concept.push(sorted_normalized(&mut concepts, |c, n| {
                n as f64 * relatedness[c]
            }));
            labels.push(class);
        }
        batches.push(StreamBatch {
            timestamp: b as u64,
            doc_term,
            doc_concept,
            labels,
            drifted: drifted && shift_terms > 0,
        });
    }
    (corpus, batches)
}

/// Append a batch's documents to an accumulated corpus (rows stacked
/// below the existing documents; vocabulary matrices untouched) — the
/// corpus-maintenance step of a streaming session.
///
/// # Panics
/// Panics if a row index exceeds the corpus vocabularies.
pub fn append_batch(corpus: &mut MultiTypeCorpus, batch: &StreamBatch) {
    let dt = Csr::from_sparse_rows(&batch.doc_term, corpus.num_terms());
    let dc = Csr::from_sparse_rows(&batch.doc_concept, corpus.num_concepts());
    corpus.doc_term = corpus.doc_term.vstack(&dt);
    corpus.doc_concept = corpus.doc_concept.vstack(&dc);
    corpus.labels.extend_from_slice(&batch.labels);
}

/// Drain a document histogram into a sorted, ℓ2-normalised sparse row
/// of `weight(index, count)` values, dropping zeros (a row whose norm is
/// at most `1e-300` keeps its raw weights).
fn sorted_normalized(
    counts: &mut TokenCounts,
    weight: impl Fn(usize, usize) -> f64,
) -> (Vec<usize>, Vec<f64>) {
    let mut indices = Vec::with_capacity(counts.distinct());
    let mut values = Vec::with_capacity(counts.distinct());
    counts.drain_sorted(|j, n| {
        let v = weight(j, n);
        if v != 0.0 {
            indices.push(j);
            values.push(v);
        }
    });
    let norm = values.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-300 {
        for v in &mut values {
            *v /= norm;
        }
    }
    (indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate;

    fn cfg() -> StreamConfig {
        StreamConfig {
            base: CorpusConfig {
                docs_per_class: vec![10, 10, 10],
                vocab_size: 90,
                concept_count: 30,
                doc_len_range: (30, 50),
                background_frac: 0.3,
                topic_noise: 0.2,
                concept_map_noise: 0.1,
                corrupt_frac: 0.0,
                subtopics_per_class: 1,
                view_confusion: 0.0,
                seed: 31,
            },
            batches: 4,
            docs_per_batch: 6,
            drift_after: Some(2),
            drift_shift: 0.5,
        }
    }

    #[test]
    fn initial_corpus_matches_plain_generate() {
        let c = cfg();
        let (initial, _) = generate_stream(&c);
        let plain = generate(&c.base);
        assert_eq!(initial.doc_term, plain.doc_term);
        assert_eq!(initial.doc_concept, plain.doc_concept);
        assert_eq!(initial.term_concept, plain.term_concept);
        assert_eq!(initial.labels, plain.labels);
    }

    #[test]
    fn batches_shaped_and_deterministic() {
        let c = cfg();
        let (_, a) = generate_stream(&c);
        let (_, b) = generate_stream(&c);
        assert_eq!(a.len(), 4);
        for (i, batch) in a.iter().enumerate() {
            assert_eq!(batch.timestamp, i as u64);
            assert_eq!(batch.len(), 6);
            assert_eq!(batch.doc_term.len(), 6);
            assert_eq!(batch.doc_concept.len(), 6);
            assert_eq!(batch.drifted, i >= 2);
            assert_eq!(batch.doc_term, b[i].doc_term);
            assert_eq!(batch.labels, b[i].labels);
            for (idx, vals) in batch.doc_term.iter().chain(&batch.doc_concept) {
                assert_eq!(idx.len(), vals.len());
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "unsorted row");
                if !vals.is_empty() {
                    let n: f64 = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
                    assert!((n - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn drift_moves_class_term_mass() {
        // Post-drift documents of a class should look less like the
        // initial corpus's same-class documents than pre-drift ones do.
        let c = cfg();
        let (initial, batches) = generate_stream(&c);
        let dense = initial.doc_term.to_dense();
        let class_mean = |class: usize| {
            let mut acc = vec![0.0; initial.num_terms()];
            let mut count = 0.0;
            for (d, &l) in initial.labels.iter().enumerate() {
                if l == class {
                    for (a, &x) in acc.iter_mut().zip(dense.row(d)) {
                        *a += x;
                    }
                    count += 1.0;
                }
            }
            for a in &mut acc {
                *a /= count;
            }
            acc
        };
        let means: Vec<Vec<f64>> = (0..3).map(class_mean).collect();
        let sim_to_own = |batch: &StreamBatch| {
            let mut total = 0.0;
            for (i, &l) in batch.labels.iter().enumerate() {
                let (idx, vals) = &batch.doc_term[i];
                total += mtrl_linalg::vecops::sparse_dense_dot(idx, vals, &means[l]);
            }
            total / batch.len() as f64
        };
        let pre = sim_to_own(&batches[0]);
        let post = sim_to_own(&batches[3]);
        assert!(
            post < pre * 0.7,
            "drift did not move class mass: pre {pre} post {post}"
        );
    }

    #[test]
    fn append_batch_grows_docs_only() {
        let c = cfg();
        let (mut corpus, batches) = generate_stream(&c);
        let docs0 = corpus.num_docs();
        append_batch(&mut corpus, &batches[0]);
        assert_eq!(corpus.num_docs(), docs0 + 6);
        assert_eq!(corpus.labels.len(), docs0 + 6);
        assert_eq!(corpus.num_terms(), 90);
        assert_eq!(corpus.num_concepts(), 30);
        // The appended rows reproduce the batch content.
        let (idx, vals) = corpus.doc_term.row(docs0);
        assert_eq!(idx, batches[0].doc_term[0].0.as_slice());
        assert_eq!(vals, batches[0].doc_term[0].1.as_slice());
    }

    #[test]
    fn feature_row_concatenates_views() {
        let c = cfg();
        let (corpus, batches) = generate_stream(&c);
        let (idx, vals) = batches[0].feature_row(0, corpus.num_terms());
        let (tc, tv) = &batches[0].doc_term[0];
        let (cc, cv) = &batches[0].doc_concept[0];
        assert_eq!(idx.len(), tc.len() + cc.len());
        assert_eq!(&idx[..tc.len()], tc.as_slice());
        assert_eq!(&vals[..tv.len()], tv.as_slice());
        assert_eq!(idx[tc.len()], corpus.num_terms() + cc[0]);
        assert_eq!(&vals[tc.len()..], cv.as_slice());
    }

    /// `generate_stream` as it was assembled before the row builders:
    /// the triplet corpus assembly and `HashMap` histograms sorted per
    /// document. Returns the initial corpus and each batch's rows.
    fn coo_stream(cfg: &StreamConfig) -> (MultiTypeCorpus, Vec<StreamBatch>) {
        use crate::corpus::coo_oracle;
        let sorted_normalized = |entries: Vec<(usize, f64)>| {
            let mut pairs: Vec<(usize, f64)> =
                entries.into_iter().filter(|&(_, v)| v != 0.0).collect();
            pairs.sort_unstable_by_key(|&(j, _)| j);
            let norm = pairs.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
            if norm > 1e-300 {
                for (_, v) in &mut pairs {
                    *v /= norm;
                }
            }
            pairs.into_iter().unzip()
        };
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let sampler = TopicSampler::new(&cfg.base, &mut rng);
        let corpus = coo_oracle::generate_with_sampler(&cfg.base, &sampler, &mut rng);
        let mut df = vec![0usize; corpus.num_terms()];
        for i in 0..corpus.num_docs() {
            for &t in corpus.doc_term.row(i).0 {
                df[t] += 1;
            }
        }
        let idf = idf_from_df(&df, corpus.num_docs());
        let shift_terms = sampler.drift_shift_terms(cfg.drift_shift);
        let batches = (0..cfg.batches)
            .map(|b| {
                let drifted = cfg.drift_after.is_some_and(|at| b >= at);
                let shift = if drifted { shift_terms } else { 0 };
                let mut batch = StreamBatch {
                    timestamp: b as u64,
                    doc_term: Vec::new(),
                    doc_concept: Vec::new(),
                    labels: Vec::new(),
                    drifted: drifted && shift_terms > 0,
                };
                for _ in 0..cfg.docs_per_batch {
                    let class = rng.gen_range(0..sampler.num_classes());
                    let corrupted = rng.gen_range(0.0..1.0) < cfg.base.corrupt_frac;
                    let (tc, cc) =
                        coo_oracle::sample_doc(&sampler, &mut rng, class, corrupted, shift);
                    batch.doc_term.push(sorted_normalized(
                        tc.into_iter()
                            .map(|(t, c)| (t, c as f64 * idf[t]))
                            .collect(),
                    ));
                    batch.doc_concept.push(sorted_normalized(
                        cc.into_iter()
                            .map(|(c, n)| (c, n as f64 * sampler.relatedness()[c]))
                            .collect(),
                    ));
                    batch.labels.push(class);
                }
                batch
            })
            .collect();
        (corpus, batches)
    }

    fn same_rows(a: &[(Vec<usize>, Vec<f64>)], b: &[(Vec<usize>, Vec<f64>)]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|((ai, av), (bi, bv))| {
                ai == bi && av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    #[test]
    fn stream_matches_coo_assembly() {
        use crate::corpus::coo_oracle::same_corpus;
        use crate::corpus::tests::{eval_shapes, random_config};
        let configs = (0..24).map(random_config).chain(eval_shapes(3));
        for (i, base) in configs.enumerate() {
            let stream = StreamConfig {
                base,
                batches: 3,
                docs_per_batch: 1 + i % 7,
                drift_after: Some(i % 3),
                drift_shift: (i % 5) as f64 / 4.0,
            };
            let (corpus, batches) = generate_stream(&stream);
            let (oracle, oracle_batches) = coo_stream(&stream);
            assert!(same_corpus(&corpus, &oracle), "{:?}", stream.base);
            for (b, o) in batches.iter().zip(&oracle_batches) {
                assert!(same_rows(&b.doc_term, &o.doc_term), "{:?}", stream.base);
                assert!(
                    same_rows(&b.doc_concept, &o.doc_concept),
                    "{:?}",
                    stream.base
                );
                assert_eq!(b.labels, o.labels);
                assert_eq!(b.drifted, o.drifted);
            }
        }
    }

    #[test]
    #[should_panic(expected = "drift_shift")]
    fn rejects_bad_shift() {
        let mut c = cfg();
        c.drift_shift = 1.5;
        generate_stream(&c);
    }
}
