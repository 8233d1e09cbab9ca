//! The triplet (COO) corpus assembly the row-wise builders replaced,
//! kept as the oracle they must match bit for bit: per-document
//! `HashMap` histograms, every entry pushed as a `(row, col, value)`
//! triplet (term–concept pairs once per document), sorted and summed by
//! `Coo::to_csr`, then row-normalised through a second `Coo`.

use super::{idf_from_df, CorpusConfig, MultiTypeCorpus, TopicSampler};
use mtrl_sparse::{Coo, Csr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The per-document sampling loop with `HashMap` histograms.
pub(crate) fn sample_doc(
    sampler: &TopicSampler,
    rng: &mut StdRng,
    class: usize,
    corrupted: bool,
    shift: usize,
) -> (HashMap<usize, usize>, HashMap<usize, usize>) {
    let len = rng.gen_range(sampler.cfg.doc_len_range.0..=sampler.cfg.doc_len_range.1);
    let own_sub = rng.gen_range(0..sampler.subtopics);
    let t_partner = sampler.term_partner(class);
    let c_partner = sampler.concept_partner(class);
    let mut term_counts = HashMap::new();
    let mut concept_counts = HashMap::new();
    for _ in 0..len {
        let t = sampler.sample_token(rng, class, own_sub, t_partner, corrupted, shift);
        *term_counts.entry(t).or_insert(0) += 1;
        let ct = sampler.sample_token(rng, class, own_sub, c_partner, corrupted, shift);
        *concept_counts.entry(sampler.eff_concept[ct]).or_insert(0) += 1;
    }
    (term_counts, concept_counts)
}

/// `corpus::generate` through the triplet assembly.
pub(crate) fn generate(cfg: &CorpusConfig) -> MultiTypeCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = TopicSampler::new(cfg, &mut rng);
    generate_with_sampler(cfg, &sampler, &mut rng)
}

/// `corpus::generate_with_sampler` through the triplet assembly.
pub(crate) fn generate_with_sampler(
    cfg: &CorpusConfig,
    sampler: &TopicSampler,
    rng: &mut StdRng,
) -> MultiTypeCorpus {
    let k = cfg.docs_per_class.len();
    let n_docs: usize = cfg.docs_per_class.iter().sum();
    let v = cfg.vocab_size;

    let mut labels = Vec::with_capacity(n_docs);
    for (class, &count) in cfg.docs_per_class.iter().enumerate() {
        labels.extend(std::iter::repeat_n(class, count));
    }
    let mut corrupted_docs = Vec::new();
    let corrupted: Vec<bool> = (0..n_docs)
        .map(|d| {
            let c = rng.gen_range(0.0..1.0) < cfg.corrupt_frac;
            if c {
                corrupted_docs.push(d);
            }
            c
        })
        .collect();

    let mut term_counts = Vec::with_capacity(n_docs);
    let mut concept_counts = Vec::with_capacity(n_docs);
    for d in 0..n_docs {
        let (tc, cc) = sample_doc(sampler, rng, labels[d], corrupted[d], 0);
        term_counts.push(tc);
        concept_counts.push(cc);
    }

    let mut df = vec![0usize; v];
    for c in &term_counts {
        for &t in c.keys() {
            df[t] += 1;
        }
    }
    let idf = idf_from_df(&df, n_docs);
    let relatedness = sampler.relatedness();

    let mut dt = Coo::new(n_docs, v);
    let mut dc = Coo::new(n_docs, cfg.concept_count);
    let mut tc = Coo::new(v, cfg.concept_count);
    for d in 0..n_docs {
        let concept_hist = &concept_counts[d];
        for (&t, &c) in &term_counts[d] {
            dt.push(d, t, c as f64 * idf[t]);
            for (&cc, &ch) in concept_hist {
                tc.push(t, cc, (c * ch) as f64);
            }
        }
        for (&cc, &ch) in concept_hist {
            dc.push(d, cc, ch as f64 * relatedness[cc]);
        }
    }

    let mut doc_term = dt.to_csr();
    let mut doc_concept = dc.to_csr();
    let mut term_concept = tc.to_csr();
    normalize_rows(&mut doc_term);
    normalize_rows(&mut doc_concept);
    normalize_rows(&mut term_concept);

    MultiTypeCorpus {
        doc_term,
        doc_concept,
        term_concept,
        labels,
        num_classes: k,
        corrupted_docs,
        config: cfg.clone(),
    }
}

/// Scale each row to unit l2 norm through a `Coo` round-trip, dropping
/// the entries of rows whose norm is at most `1e-300`.
fn normalize_rows(m: &mut Csr) {
    let norms: Vec<f64> = (0..m.rows())
        .map(|i| m.row(i).1.iter().map(|v| v * v).sum::<f64>().sqrt())
        .collect();
    let mut coo = Coo::with_capacity(m.rows(), m.cols(), m.nnz());
    for (i, j, v) in m.iter() {
        if norms[i] > 1e-300 {
            coo.push(i, j, v / norms[i]);
        }
    }
    *m = coo.to_csr();
}

/// `true` if `a` and `b` have the same shape and, row by row, the same
/// column indices (hence the same `indptr`) and value bits.
pub(crate) fn same_bits(a: &Csr, b: &Csr) -> bool {
    a.shape() == b.shape()
        && (0..a.rows()).all(|i| {
            let ((ac, av), (bc, bv)) = (a.row(i), b.row(i));
            ac == bc && av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// [`same_bits`] on all three relation matrices, plus labels and the
/// corrupted-document list.
pub(crate) fn same_corpus(a: &MultiTypeCorpus, b: &MultiTypeCorpus) -> bool {
    same_bits(&a.doc_term, &b.doc_term)
        && same_bits(&a.doc_concept, &b.doc_concept)
        && same_bits(&a.term_concept, &b.term_concept)
        && a.labels == b.labels
        && a.corrupted_docs == b.corrupted_docs
}
