//! Latent-topic multi-type corpus generator.
//!
//! Produces the three co-occurrence matrices the paper's pipeline consumes
//! (Sec. IV-A):
//!
//! * **document–term** — tf-idf weighted token counts;
//! * **document–concept** — counts aggregated through a noisy term→concept
//!   mapping, scaled by a semantic-relatedness factor (mimicking the
//!   Wikipedia mapping of refs [12, 13, 32]);
//! * **term–concept** — number of times a term/concept pair co-occurs in
//!   the same document.
//!
//! Generative model: each class owns a block of *anchor terms*; a token is
//! drawn from the class anchors with probability `1 − topic_noise`, else
//! from a shared background vocabulary. Concepts are a coarsening of the
//! term space (several anchor blocks per concept group) with mapping noise
//! — a second, noisier view of the same latent classes, exactly the role
//! concepts play in the paper. A `corrupt_frac` of documents is replaced
//! by uniform random tokens: those rows carry no class signal and exercise
//! the sample-wise sparse error matrix `E_R` (Eq. 13).

use mtrl_sparse::{Csr, CsrBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Parameters of the corpus generator.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusConfig {
    /// Documents per class (its length is the number of classes).
    pub docs_per_class: Vec<usize>,
    /// Vocabulary size (terms). Must exceed the background block.
    pub vocab_size: usize,
    /// Number of concepts.
    pub concept_count: usize,
    /// Tokens per document drawn uniformly from this inclusive range.
    pub doc_len_range: (usize, usize),
    /// Fraction of the vocabulary reserved as shared background terms.
    pub background_frac: f64,
    /// Probability a token comes from the background instead of the class
    /// anchors — the "noise level" of the corpus.
    pub topic_noise: f64,
    /// Probability a term maps to a random concept instead of its true one.
    pub concept_map_noise: f64,
    /// Fraction of documents whose content is replaced by uniform random
    /// tokens (sample-wise corruption).
    pub corrupt_frac: f64,
    /// Sub-topics per class: each document leans on one sub-topic, so a
    /// class is a *multi-modal* region ("manifold") in feature space.
    /// Same-class documents from different sub-topics look dissimilar in
    /// Euclidean space — the structure that makes intra-type relationship
    /// learning (pNN + subspace ensemble) matter. `1` disables.
    pub subtopics_per_class: usize,
    /// View confusion: with this probability a class-anchored token is
    /// drawn from the class's *confusion partner* instead. Partners differ
    /// between the term view (pairs `(0,1), (2,3), …`) and the concept
    /// view (pairs shifted by one), so each single view confuses some
    /// class pairs while the *combination* of views separates all of them
    /// — mimicking real topics that are lexically close but conceptually
    /// distinct (and vice versa). `0.0` disables.
    pub view_confusion: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            docs_per_class: vec![40; 5],
            vocab_size: 400,
            concept_count: 300,
            doc_len_range: (60, 120),
            background_frac: 0.3,
            topic_noise: 0.35,
            concept_map_noise: 0.15,
            corrupt_frac: 0.06,
            subtopics_per_class: 2,
            view_confusion: 0.25,
            seed: 2015,
        }
    }
}

/// A generated multi-type relational dataset (documents, terms, concepts).
#[derive(Debug, Clone)]
pub struct MultiTypeCorpus {
    /// tf-idf weighted document–term matrix (`docs x terms`).
    pub doc_term: Csr,
    /// Document–concept matrix (`docs x concepts`).
    pub doc_concept: Csr,
    /// Term–concept co-occurrence matrix (`terms x concepts`).
    pub term_concept: Csr,
    /// Ground-truth class of every document.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Indices of the corrupted documents (useful for robustness checks).
    pub corrupted_docs: Vec<usize>,
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
}

impl MultiTypeCorpus {
    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.doc_term.rows()
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.doc_term.cols()
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.doc_concept.cols()
    }
}

/// The fitted generative machinery behind [`generate`]: vocabulary
/// layout, confusion pairings, the (noisy, per-term-fixed) term→concept
/// mapping and the concept relatedness weights.
///
/// Extracted so the streaming generator ([`crate::stream`]) can keep
/// emitting batches from the *same* latent model that produced the
/// initial corpus — same anchors, same concept mapping, same class
/// structure — optionally with a concept-drift shift of the anchor
/// windows. Construction consumes the RNG in exactly the order the
/// monolithic generator did, so every seeded corpus in the workspace is
/// bit-identical to before the extraction.
pub(crate) struct TopicSampler {
    cfg: CorpusConfig,
    k: usize,
    v: usize,
    background: usize,
    anchors: usize,
    per_class: usize,
    subtopics: usize,
    eff_concept: Vec<usize>,
    relatedness: Vec<f64>,
}

/// Probability that a non-confused token stays on the document's own
/// sub-topic (the remainder spreads over the class's other sub-topics,
/// keeping the class connected as one manifold).
const OWN_SUBTOPIC: f64 = 0.75;

impl TopicSampler {
    /// Validate the configuration and draw the latent model parameters
    /// (relatedness, effective concept mapping) from `rng`.
    ///
    /// # Panics
    /// Panics on degenerate configurations — see [`generate`].
    pub(crate) fn new(cfg: &CorpusConfig, rng: &mut StdRng) -> Self {
        let k = cfg.docs_per_class.len();
        assert!(k >= 2, "need at least 2 classes");
        assert!(
            cfg.vocab_size >= 4 * k,
            "vocabulary too small for {k} classes"
        );
        assert!(
            cfg.concept_count >= k,
            "need at least one concept per class"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.topic_noise)
                && (0.0..=1.0).contains(&cfg.concept_map_noise)
                && (0.0..=1.0).contains(&cfg.corrupt_frac)
                && (0.0..1.0).contains(&cfg.background_frac),
            "probabilities out of range"
        );
        assert!(
            cfg.doc_len_range.0 > 0 && cfg.doc_len_range.0 <= cfg.doc_len_range.1,
            "bad doc length range"
        );
        let v = cfg.vocab_size;
        // Vocabulary layout: the first `background` terms are shared; the
        // rest is split into k anchor blocks.
        let background = ((v as f64) * cfg.background_frac).round() as usize;
        let anchors = v - background;
        let per_class = anchors / k;
        let subtopics = cfg.subtopics_per_class.max(1);
        assert!(
            per_class >= 2 * subtopics,
            "fewer than 2 anchor terms per sub-topic ({per_class} anchors / class, {subtopics} sub-topics)"
        );
        // True term -> concept mapping: concepts tile the vocabulary in
        // order, so anchor blocks map to class-correlated concept groups.
        let true_concept: Vec<usize> = (0..v).map(|t| (t * cfg.concept_count) / v).collect();
        // Concept "semantic relatedness" weights (refs [13, 32]) in [0.5, 1].
        let relatedness: Vec<f64> = (0..cfg.concept_count)
            .map(|_| rng.gen_range(0.5..1.0))
            .collect();
        // Noisy effective mapping, fixed per term (a term always maps to
        // the same concept, as a real knowledge base would).
        let eff_concept: Vec<usize> = (0..v)
            .map(|t| {
                if rng.gen_range(0.0..1.0) < cfg.concept_map_noise {
                    rng.gen_range(0..cfg.concept_count)
                } else {
                    true_concept[t]
                }
            })
            .collect();
        TopicSampler {
            cfg: cfg.clone(),
            k,
            v,
            background,
            anchors,
            per_class,
            subtopics,
            eff_concept,
            relatedness,
        }
    }

    pub(crate) fn num_classes(&self) -> usize {
        self.k
    }

    pub(crate) fn relatedness(&self) -> &[f64] {
        &self.relatedness
    }

    /// Anchor-window rotation (in terms) for a drift fraction of one
    /// class block — derived here so the streaming generator cannot
    /// desynchronise from the sampler's actual vocabulary layout.
    pub(crate) fn drift_shift_terms(&self, fraction: f64) -> usize {
        ((self.per_class as f64) * fraction).round() as usize
    }

    fn anchor_range(&self, class: usize) -> (usize, usize) {
        let start = self.background + class * self.per_class;
        let end = if class == self.k - 1 {
            self.v
        } else {
            start + self.per_class
        };
        (start, end)
    }

    /// Sub-topic sub-block inside a class's anchor range.
    fn subtopic_range(&self, class: usize, sub: usize) -> (usize, usize) {
        let (a_start, a_end) = self.anchor_range(class);
        let width = (a_end - a_start) / self.subtopics;
        let s_start = a_start + sub * width;
        let s_end = if sub == self.subtopics - 1 {
            a_end
        } else {
            s_start + width
        };
        (s_start, s_end)
    }

    /// Complementary confusion pairings: the term view confuses classes
    /// (0,1), (2,3), …; the concept view confuses the shifted pairs
    /// (1,2), (3,4), …, (k-1, 0). Any single view mixes half the pairs;
    /// the union of views separates everything.
    fn term_partner(&self, c: usize) -> usize {
        if c.is_multiple_of(2) {
            (c + 1).min(self.k - 1)
        } else {
            c - 1
        }
    }

    fn concept_partner(&self, c: usize) -> usize {
        if c == 0 {
            self.k - 1
        } else if c % 2 == 1 {
            (c + 1) % self.k
        } else {
            c - 1
        }
    }

    /// Draw one token. `shift` rotates anchored tokens cyclically within
    /// the anchor region of the vocabulary — the concept-drift knob: at
    /// `shift = per_class / 2` every class mean moves halfway towards
    /// its neighbour's old position, so a model fitted pre-drift
    /// confuses adjacent classes until it refreshes. `shift = 0` is the
    /// stationary distribution. RNG draw order is identical for every
    /// shift (the rotation is applied after sampling).
    #[allow(clippy::too_many_arguments)] // mirrors the sampling state of the original closure
    fn sample_token(
        &self,
        rng: &mut StdRng,
        class: usize,
        own_sub: usize,
        partner: usize,
        corrupted: bool,
        shift: usize,
    ) -> usize {
        if corrupted {
            return rng.gen_range(0..self.v);
        }
        if rng.gen_range(0.0..1.0) < self.cfg.topic_noise {
            return rng.gen_range(0..self.background.max(1));
        }
        let (cls, sub) = if rng.gen_range(0.0..1.0) < self.cfg.view_confusion {
            (partner, rng.gen_range(0..self.subtopics))
        } else if rng.gen_range(0.0..1.0) < OWN_SUBTOPIC {
            (class, own_sub)
        } else {
            (class, rng.gen_range(0..self.subtopics))
        };
        let (s, e) = self.subtopic_range(cls, sub);
        let t = rng.gen_range(s..e);
        if shift == 0 {
            t
        } else {
            self.background + (t - self.background + shift) % self.anchors
        }
    }

    /// Sample one document's two token streams: term counts and (mapped)
    /// concept counts, added to `terms` and `concepts`. The *term stream*
    /// fills the document-term view (term-view confusion pairing); the
    /// *concept stream* is routed through the term→concept mapping to
    /// fill the document-concept view (concept-view pairing). Both
    /// streams share the document's class and sub-topic, so the
    /// term-concept co-occurrence matrix ties the two views together —
    /// the signal HOCC methods exploit and two-way methods cannot.
    pub(crate) fn sample_doc(
        &self,
        rng: &mut StdRng,
        class: usize,
        corrupted: bool,
        shift: usize,
        terms: &mut TokenCounts,
        concepts: &mut TokenCounts,
    ) {
        let len = rng.gen_range(self.cfg.doc_len_range.0..=self.cfg.doc_len_range.1);
        let own_sub = rng.gen_range(0..self.subtopics);
        let t_partner = self.term_partner(class);
        let c_partner = self.concept_partner(class);
        for _ in 0..len {
            let t = self.sample_token(rng, class, own_sub, t_partner, corrupted, shift);
            terms.add(t);
            let ct = self.sample_token(rng, class, own_sub, c_partner, corrupted, shift);
            concepts.add(self.eff_concept[ct]);
        }
    }
}

/// Reusable per-document token histogram over `0..width`: a dense count
/// per index plus the list of indices seen, so one document costs
/// `O(tokens + distinct · log distinct)` and nothing is allocated per
/// document.
pub(crate) struct TokenCounts {
    counts: Vec<usize>,
    seen: Vec<usize>,
}

impl TokenCounts {
    pub(crate) fn new(width: usize) -> Self {
        TokenCounts {
            counts: vec![0; width],
            seen: Vec::new(),
        }
    }

    fn add(&mut self, j: usize) {
        if self.counts[j] == 0 {
            self.seen.push(j);
        }
        self.counts[j] += 1;
    }

    /// Number of distinct indices counted.
    pub(crate) fn distinct(&self) -> usize {
        self.seen.len()
    }

    /// Hand every counted index to `f` in ascending order with its
    /// count, and reset the histogram for the next document.
    pub(crate) fn drain_sorted(&mut self, mut f: impl FnMut(usize, usize)) {
        self.seen.sort_unstable();
        for &j in &self.seen {
            f(j, std::mem::take(&mut self.counts[j]));
        }
        self.seen.clear();
    }
}

/// Inverse document frequency from per-term document counts.
pub(crate) fn idf_from_df(df: &[usize], n_docs: usize) -> Vec<f64> {
    df.iter()
        .map(|&f| ((1.0 + n_docs as f64) / (1.0 + f as f64)).ln() + 1.0)
        .collect()
}

/// Generate a corpus from a configuration.
///
/// # Panics
/// Panics on degenerate configurations (no classes, empty vocabulary,
/// out-of-range probabilities) — configurations are programmer-supplied
/// constants, so panicking is the right failure mode.
pub fn generate(cfg: &CorpusConfig) -> MultiTypeCorpus {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = TopicSampler::new(cfg, &mut rng);
    generate_with_sampler(cfg, &sampler, &mut rng)
}

/// The document-sampling and matrix-assembly half of [`generate`],
/// shared with the streaming generator (which reuses `sampler` and `rng`
/// to keep emitting batches from the same latent model).
pub(crate) fn generate_with_sampler(
    cfg: &CorpusConfig,
    sampler: &TopicSampler,
    rng: &mut StdRng,
) -> MultiTypeCorpus {
    let k = cfg.docs_per_class.len();
    let n_docs: usize = cfg.docs_per_class.iter().sum();
    let v = cfg.vocab_size;

    // Labels & corruption choices.
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

    // Raw token counts, one document row at a time.
    let mut raw_dt = CsrBuilder::new(n_docs, v);
    let mut raw_dc = CsrBuilder::new(n_docs, cfg.concept_count);
    let mut terms = TokenCounts::new(v);
    let mut concepts = TokenCounts::new(cfg.concept_count);
    for d in 0..n_docs {
        sampler.sample_doc(rng, labels[d], corrupted[d], 0, &mut terms, &mut concepts);
        terms.drain_sorted(|t, c| raw_dt.push(t, c as f64));
        raw_dt.finish_row();
        concepts.drain_sorted(|cc, ch| raw_dc.push(cc, ch as f64));
        raw_dc.finish_row();
    }
    let (raw_dt, raw_dc) = (raw_dt.build(), raw_dc.build());

    // Document frequencies for idf (term view): the lengths of the
    // term rows of the transposed counts.
    let term_docs = raw_dt.transpose();
    let df: Vec<usize> = (0..v).map(|t| term_docs.row(t).0.len()).collect();
    let idf = idf_from_df(&df, n_docs);
    let doc_term = unit_rows(&raw_dt, |t, c| c * idf[t]);
    drop(raw_dt);
    let term_concept = term_concept_counts(&term_docs, &raw_dc);
    drop(term_docs);
    // Doc-concept weighting: tf-idf-style mass of the mapped tokens,
    // scaled by the concept's semantic relatedness.
    let relatedness = sampler.relatedness();
    let doc_concept = unit_rows(&raw_dc, |cc, ch| ch * relatedness[cc]);

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

/// The term–concept co-occurrence matrix, row-normalised: entry `(t, c)`
/// counts, over all documents, the pairs of a term-`t` token and a
/// concept-`c` token in the same document — `(raw doc–term counts)ᵀ ·
/// (raw doc–concept counts)`, built one term row at a time in a
/// length-`concepts` accumulator. The counts are integers, so every
/// summation order gives the same sums.
fn term_concept_counts(term_docs: &Csr, raw_dc: &Csr) -> Csr {
    let mut acc = vec![0.0; raw_dc.cols()];
    let (mut seen, mut vals) = (Vec::new(), Vec::new());
    let mut out = CsrBuilder::new(term_docs.rows(), raw_dc.cols());
    for t in 0..term_docs.rows() {
        let (docs, counts) = term_docs.row(t);
        for (&d, &c) in docs.iter().zip(counts) {
            let (cols, chs) = raw_dc.row(d);
            for (&cc, &ch) in cols.iter().zip(chs) {
                if acc[cc] == 0.0 {
                    seen.push(cc);
                }
                acc[cc] += c * ch;
            }
        }
        seen.sort_unstable();
        vals.clear();
        vals.extend(seen.iter().map(|&cc| std::mem::take(&mut acc[cc])));
        push_unit_row(&mut out, &seen, &vals);
        seen.clear();
    }
    out.build()
}

/// `m` with every stored value `x` at column `j` replaced by
/// `weight(j, x)` and each row scaled to unit l2 norm.
fn unit_rows(m: &Csr, weight: impl Fn(usize, f64) -> f64) -> Csr {
    let mut out = CsrBuilder::with_capacity(m.rows(), m.cols(), m.nnz());
    let mut vals = Vec::new();
    for i in 0..m.rows() {
        let (cols, raw) = m.row(i);
        vals.clear();
        vals.extend(cols.iter().zip(raw).map(|(&j, &x)| weight(j, x)));
        push_unit_row(&mut out, cols, &vals);
    }
    out.build()
}

/// Append one row (ascending `cols`) scaled to unit l2 norm: the norm
/// sums `v²` in column order and each value is divided by it. A row
/// whose norm is at most `1e-300` is left empty.
fn push_unit_row(out: &mut CsrBuilder, cols: &[usize], vals: &[f64]) {
    let norm = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-300 {
        for (&j, &v) in cols.iter().zip(vals) {
            out.push(j, v / norm);
        }
    }
    out.finish_row();
}

#[cfg(test)]
pub(crate) mod coo_oracle;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig {
            docs_per_class: vec![10, 10, 10],
            vocab_size: 90,
            concept_count: 30,
            doc_len_range: (30, 50),
            background_frac: 0.3,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.1,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn shapes_and_labels() {
        let c = generate(&small_cfg());
        assert_eq!(c.num_docs(), 30);
        assert_eq!(c.num_terms(), 90);
        assert_eq!(c.num_concepts(), 30);
        assert_eq!(c.labels.len(), 30);
        assert_eq!(c.num_classes, 3);
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[29], 2);
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.doc_term, b.doc_term);
        assert_eq!(a.doc_concept, b.doc_concept);
        assert_eq!(a.term_concept, b.term_concept);
        assert_eq!(a.corrupted_docs, b.corrupted_docs);
        let mut cfg2 = small_cfg();
        cfg2.seed = 2;
        let c = generate(&cfg2);
        assert_ne!(a.doc_term, c.doc_term);
    }

    #[test]
    fn rows_unit_norm() {
        let c = generate(&small_cfg());
        for m in [&c.doc_term, &c.doc_concept, &c.term_concept] {
            for i in 0..m.rows() {
                let (_, vals) = m.row(i);
                if vals.is_empty() {
                    continue;
                }
                let n: f64 = vals.iter().map(|v| v * v).sum::<f64>().sqrt();
                assert!((n - 1.0).abs() < 1e-9, "row {i} norm {n}");
            }
        }
    }

    #[test]
    fn nonnegative_entries() {
        let c = generate(&small_cfg());
        for m in [&c.doc_term, &c.doc_concept, &c.term_concept] {
            for (_, _, v) in m.iter() {
                assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn class_signal_present() {
        // Same-class documents must be more similar (cosine on doc_term)
        // than cross-class ones, on average.
        let mut cfg = small_cfg();
        cfg.corrupt_frac = 0.0;
        let c = generate(&cfg);
        let dense = c.doc_term.to_dense();
        let (mut within, mut across) = (vec![], vec![]);
        for i in 0..30 {
            for j in i + 1..30 {
                let s = mtrl_linalg::vecops::cosine(dense.row(i), dense.row(j));
                if c.labels[i] == c.labels[j] {
                    within.push(s);
                } else {
                    across.push(s);
                }
            }
        }
        let mw = mtrl_linalg::vecops::mean(&within);
        let ma = mtrl_linalg::vecops::mean(&across);
        assert!(mw > ma + 0.1, "within {mw} vs across {ma}");
    }

    #[test]
    fn corruption_destroys_signal() {
        let mut cfg = small_cfg();
        cfg.corrupt_frac = 0.3;
        cfg.seed = 9;
        let c = generate(&cfg);
        assert!(!c.corrupted_docs.is_empty());
        let dense = c.doc_term.to_dense();
        // A corrupted doc should look less like its class than a clean one.
        let clean: Vec<usize> = (0..30).filter(|d| !c.corrupted_docs.contains(d)).collect();
        let mean_sim_to_class = |d: usize| {
            let sims: Vec<f64> = clean
                .iter()
                .filter(|&&o| o != d && c.labels[o] == c.labels[d])
                .map(|&o| mtrl_linalg::vecops::cosine(dense.row(d), dense.row(o)))
                .collect();
            mtrl_linalg::vecops::mean(&sims)
        };
        let corrupt_mean = mtrl_linalg::vecops::mean(
            &c.corrupted_docs
                .iter()
                .map(|&d| mean_sim_to_class(d))
                .collect::<Vec<_>>(),
        );
        let clean_mean = mtrl_linalg::vecops::mean(
            &clean
                .iter()
                .map(|&d| mean_sim_to_class(d))
                .collect::<Vec<_>>(),
        );
        assert!(
            corrupt_mean < clean_mean,
            "corrupted {corrupt_mean} vs clean {clean_mean}"
        );
    }

    #[test]
    fn concepts_correlate_with_classes() {
        let mut cfg = small_cfg();
        cfg.corrupt_frac = 0.0;
        cfg.concept_map_noise = 0.05;
        let c = generate(&cfg);
        let dense = c.doc_concept.to_dense();
        let (mut within, mut across) = (vec![], vec![]);
        for i in 0..30 {
            for j in i + 1..30 {
                let s = mtrl_linalg::vecops::cosine(dense.row(i), dense.row(j));
                if c.labels[i] == c.labels[j] {
                    within.push(s);
                } else {
                    across.push(s);
                }
            }
        }
        assert!(
            mtrl_linalg::vecops::mean(&within) > mtrl_linalg::vecops::mean(&across),
            "concept view carries no class signal"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn rejects_single_class() {
        let mut cfg = small_cfg();
        cfg.docs_per_class = vec![10];
        generate(&cfg);
    }

    /// A random valid configuration: 2–5 classes of 1–24 documents,
    /// vocabulary and concept counts from the smallest the sampler
    /// accepts upwards, any noise levels, and `corrupt_frac` at 0, 1 or
    /// in between.
    pub(crate) fn random_config(seed: u64) -> CorpusConfig {
        let mut rng = StdRng::seed_from_u64(seed);
        let k: usize = rng.gen_range(2..=5);
        let subtopics: usize = rng.gen_range(1..=3);
        let background_frac: f64 = rng.gen_range(0.0..0.5);
        // At least `2 · subtopics` anchor terms per class.
        let min_vocab =
            (((2 * subtopics + 1) * k) as f64 / (1.0 - background_frac)).ceil() as usize + 1;
        let lo: usize = rng.gen_range(1..80);
        CorpusConfig {
            docs_per_class: (0..k).map(|_| rng.gen_range(1..25)).collect(),
            vocab_size: rng.gen_range(min_vocab..min_vocab + 200),
            concept_count: rng.gen_range(k..k + 80),
            doc_len_range: (lo, lo + rng.gen_range(0..60usize)),
            background_frac,
            topic_noise: rng.gen_range(0.0..1.0),
            concept_map_noise: rng.gen_range(0.0..1.0),
            corrupt_frac: [0.0, 1.0, rng.gen_range(0.0..1.0)][rng.gen_range(0..3usize)],
            subtopics_per_class: subtopics,
            view_confusion: rng.gen_range(0.0..1.0),
            seed: rng.next_u64(),
        }
    }

    /// The `Tiny3`, `Balanced3`, `Skewed5` and `Large3` corpus shapes of
    /// `mtrl-eval`'s scenario registry (a dependent crate, so restated
    /// here), with corruption switched on for the last two.
    pub(crate) fn eval_shapes(seed: u64) -> [CorpusConfig; 4] {
        let tiny3 = CorpusConfig {
            docs_per_class: vec![8; 3],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (25, 40),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        };
        let balanced3 = CorpusConfig {
            docs_per_class: vec![20; 3],
            vocab_size: 90,
            concept_count: 24,
            doc_len_range: (40, 70),
            topic_noise: 0.25,
            subtopics_per_class: 2,
            view_confusion: 0.25,
            ..tiny3.clone()
        };
        let skewed5 = CorpusConfig {
            docs_per_class: vec![6, 9, 12, 15, 18],
            vocab_size: 120,
            concept_count: 36,
            doc_len_range: (40, 80),
            background_frac: 0.3,
            topic_noise: 0.3,
            concept_map_noise: 0.15,
            corrupt_frac: 0.1,
            ..tiny3.clone()
        };
        let large3 = CorpusConfig {
            docs_per_class: vec![220; 3],
            vocab_size: 150,
            concept_count: 40,
            corrupt_frac: 0.1,
            ..balanced3.clone()
        };
        [tiny3, balanced3, skewed5, large3]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn row_builders_match_coo_assembly(seed in any::<u64>()) {
            let cfg = random_config(seed);
            prop_assert!(
                coo_oracle::same_corpus(&generate(&cfg), &coo_oracle::generate(&cfg)),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn eval_shapes_match_coo_assembly() {
        for seed in [0, 1, 42] {
            for cfg in eval_shapes(seed) {
                assert!(
                    coo_oracle::same_corpus(&generate(&cfg), &coo_oracle::generate(&cfg)),
                    "{cfg:?}"
                );
            }
        }
    }

    #[test]
    fn zero_corruption_has_no_corrupted_docs() {
        let mut cfg = small_cfg();
        cfg.corrupt_frac = 0.0;
        let c = generate(&cfg);
        assert!(c.corrupted_docs.is_empty());
    }
}
