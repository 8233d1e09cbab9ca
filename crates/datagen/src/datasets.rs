//! D1–D4 dataset presets (paper Table II), at three scales.
//!
//! | id | paper name      | classes | profile                      |
//! |----|-----------------|---------|------------------------------|
//! | D1 | Multi5          | 5       | balanced (100 docs/class)    |
//! | D2 | Multi10         | 10      | balanced (50 docs/class)     |
//! | D3 | R-Min20Max200   | 25      | skewed, 20–200 docs/class    |
//! | D4 | R-Top10         | 10      | 10 largest (big, skewed)     |
//!
//! `Scale::Paper` matches Table II's raw counts; `Scale::Small` (default
//! for the benches) shrinks everything ~4–10x while preserving the class
//! structure and skew profile; `Scale::Tiny` is for unit tests.

use crate::corpus::{generate, CorpusConfig, MultiTypeCorpus};
use serde::Serialize;

/// The four evaluation datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DatasetId {
    /// Multi5: 5 balanced classes from 20Newsgroups.
    D1,
    /// Multi10: 10 balanced classes from 20Newsgroups.
    D2,
    /// R-Min20Max200: 25 skewed classes from Reuters-21578.
    D3,
    /// R-Top10: the 10 largest Reuters classes.
    D4,
}

impl DatasetId {
    /// All four datasets in paper order.
    pub fn all() -> [DatasetId; 4] {
        [DatasetId::D1, DatasetId::D2, DatasetId::D3, DatasetId::D4]
    }

    /// Paper name of the dataset.
    pub fn paper_name(self) -> &'static str {
        match self {
            DatasetId::D1 => "Multi5",
            DatasetId::D2 => "Multi10",
            DatasetId::D3 => "R-Min20Max200",
            DatasetId::D4 => "R-Top10",
        }
    }

    /// Short id string ("D1".."D4").
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetId::D1 => "D1",
            DatasetId::D2 => "D2",
            DatasetId::D3 => "D3",
            DatasetId::D4 => "D4",
        }
    }
}

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Unit-test sizes (tens of documents).
    Tiny,
    /// Bench default: preserves class structure at ~4–10x reduction.
    Small,
    /// Table II's raw document/term/concept counts. Slow; provided for
    /// completeness.
    Paper,
}

/// Build the generator configuration for a dataset at a scale.
pub fn config(id: DatasetId, scale: Scale) -> CorpusConfig {
    // Class-size profiles. D3's sizes interpolate 20..200 (paper: classes
    // with at least 20 and at most 200 docs); D4's follow a Zipf-ish decay
    // of "largest classes".
    let (docs_per_class, vocab, concepts): (Vec<usize>, usize, usize) = match (id, scale) {
        (DatasetId::D1, Scale::Tiny) => (vec![8; 5], 100, 60),
        (DatasetId::D1, Scale::Small) => (vec![40; 5], 420, 320),
        (DatasetId::D1, Scale::Paper) => (vec![100; 5], 2000, 1667),

        (DatasetId::D2, Scale::Tiny) => (vec![5; 10], 120, 70),
        (DatasetId::D2, Scale::Small) => (vec![20; 10], 420, 320),
        (DatasetId::D2, Scale::Paper) => (vec![50; 10], 2000, 1658),

        (DatasetId::D3, Scale::Tiny) => ((0..6).map(|i| 4 + i).collect(), 160, 80),
        (DatasetId::D3, Scale::Small) => (skewed_sizes(25, 5, 24), 520, 380),
        (DatasetId::D3, Scale::Paper) => (skewed_sizes(25, 20, 200), 2904, 2450),

        (DatasetId::D4, Scale::Tiny) => ((0..4).map(|i| 8 + 2 * i).collect(), 160, 80),
        (DatasetId::D4, Scale::Small) => (zipf_sizes(10, 90, 18), 560, 400),
        (DatasetId::D4, Scale::Paper) => (zipf_sizes(10, 1800, 250), 5146, 4109),
    };
    // Noise profiles: the Reuters-derived sets (D3, D4) are harder in the
    // paper (lower absolute scores), so they get more topic noise,
    // view confusion and corruption. D2 has twice the classes of D1 at
    // the same total size. All presets use two sub-topics per class
    // (multi-modal classes — the manifold structure of Fig. 1) and
    // complementary view confusion (some class pairs lexically close,
    // others conceptually close), which is what separates the method
    // families the way Table III does.
    let (topic_noise, view_confusion, corrupt_frac) = match id {
        DatasetId::D1 => (0.35, 0.26, 0.12),
        DatasetId::D2 => (0.38, 0.28, 0.14),
        DatasetId::D3 => (0.42, 0.32, 0.15),
        DatasetId::D4 => (0.40, 0.30, 0.15),
    };
    CorpusConfig {
        docs_per_class,
        vocab_size: vocab,
        concept_count: concepts,
        doc_len_range: (50, 100),
        background_frac: 0.3,
        topic_noise,
        concept_map_noise: 0.15,
        corrupt_frac,
        subtopics_per_class: 2,
        view_confusion,
        seed: dataset_seed(id),
    }
}

/// Generate a dataset at a scale.
pub fn load(id: DatasetId, scale: Scale) -> MultiTypeCorpus {
    generate(&config(id, scale))
}

/// The fixed seed for each dataset.
pub(crate) fn dataset_seed(id: DatasetId) -> u64 {
    match id {
        DatasetId::D1 => 101,
        DatasetId::D2 => 102,
        DatasetId::D3 => 103,
        DatasetId::D4 => 104,
    }
}

/// Linearly interpolated skewed class sizes from `lo` to `hi`.
fn skewed_sizes(k: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..k)
        .map(|i| lo + (hi - lo) * i / (k - 1).max(1))
        .collect()
}

/// Zipf-like decaying sizes: class `i` gets `max(largest / (i+1), floor)`.
fn zipf_sizes(k: usize, largest: usize, floor: usize) -> Vec<usize> {
    (0..k).map(|i| (largest / (i + 1)).max(floor)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_generates_quickly() {
        for id in DatasetId::all() {
            let c = load(id, Scale::Tiny);
            assert!(c.num_docs() >= 20, "{id:?}");
            assert!(c.num_classes >= 2);
            assert_eq!(c.labels.len(), c.num_docs());
        }
    }

    #[test]
    fn d1_small_is_balanced() {
        let cfg = config(DatasetId::D1, Scale::Small);
        assert_eq!(cfg.docs_per_class, vec![40; 5]);
    }

    #[test]
    fn d3_small_is_skewed_25_classes() {
        let cfg = config(DatasetId::D3, Scale::Small);
        assert_eq!(cfg.docs_per_class.len(), 25);
        assert!(cfg.docs_per_class.first().unwrap() < cfg.docs_per_class.last().unwrap());
        assert_eq!(*cfg.docs_per_class.first().unwrap(), 5);
        assert_eq!(*cfg.docs_per_class.last().unwrap(), 24);
    }

    #[test]
    fn d4_sizes_decay() {
        let sizes = zipf_sizes(10, 90, 18);
        assert_eq!(sizes[0], 90);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(sizes.iter().all(|&s| s >= 18));
    }

    #[test]
    fn paper_scale_matches_table2_counts() {
        let d1 = config(DatasetId::D1, Scale::Paper);
        assert_eq!(d1.docs_per_class.iter().sum::<usize>(), 500);
        assert_eq!(d1.vocab_size, 2000);
        assert_eq!(d1.concept_count, 1667);
        let d4 = config(DatasetId::D4, Scale::Paper);
        assert_eq!(d4.vocab_size, 5146);
        assert_eq!(d4.concept_count, 4109);
    }

    #[test]
    fn seeds_differ_across_datasets() {
        let seeds: Vec<u64> = DatasetId::all().iter().map(|&i| dataset_seed(i)).collect();
        let mut dedup = seeds.clone();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len());
    }

    #[test]
    fn names_stable() {
        assert_eq!(DatasetId::D1.paper_name(), "Multi5");
        assert_eq!(DatasetId::D3.short_name(), "D3");
    }
}
