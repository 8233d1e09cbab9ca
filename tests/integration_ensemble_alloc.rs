//! Allocation-shape assertion: the consensus-ensemble path never
//! allocates an `n x n` dense matrix — the co-association structure is
//! sparse by construction and the trajectory merge works on `n x k`
//! memory.
//!
//! `mtrl_linalg::mat::alloc_peak` records the largest single dense
//! allocation process-wide, which is why this test lives alone in its
//! own binary: any concurrently running test that touches an `n x n`
//! `Mat` would pollute the high-water mark.

use mtrl_ensemble::generator::{generate_members, SharedRegularizers};
use rhchme::pipeline::{Artifacts, EnsembleSpec, PipelineParams};

#[test]
fn ensemble_path_allocates_no_nxn_dense() {
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![70, 70],
        vocab_size: 120,
        concept_count: 30,
        doc_len_range: (25, 40),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.1,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 71 ^ mtrl_datagen::seed_from_env(0),
    });
    // Divisor 20 keeps c small so `n·c ≪ n²` and the bound is sharp.
    let params = PipelineParams {
        feature_cluster_divisor: 20,
        max_iter: 10,
        spg_max_iter: 10,
        ..PipelineParams::default()
    };
    let arts = Artifacts::new(&corpus, &params).unwrap();
    let n = arts.data.total_objects();
    // Random-k may double the document cluster block, so the member
    // fits' O(n·c) bound must use the widest possible layout.
    let c_max = arts.data.total_clusters() + arts.data.cluster_counts()[0];
    assert!(
        n * c_max * 8 < n * n,
        "test geometry: need n ≫ c (n={n}, c_max={c_max})"
    );

    // Artifact + regulariser construction (feature views, SPG, k-means)
    // is the fit front door shared with every single-method path; the
    // contract under test is the ensemble layer itself — member engine
    // fits, the sparse co-association build, and the trajectory merge.
    let regs = SharedRegularizers::new(&arts, &params).unwrap();
    let spec = EnsembleSpec {
        members: 6,
        ..EnsembleSpec::default()
    };

    mtrl_linalg::mat::alloc_peak::reset();
    let members = generate_members(&arts, &regs, &spec, &params).unwrap();
    let result = mtrl_ensemble::merge_members(&arts.data, &arts.r, &members, &spec).unwrap();
    let peak = mtrl_linalg::mat::alloc_peak::peak_elems();

    assert_eq!(result.members.len(), 6);
    assert_eq!(result.doc_labels.len(), 140);
    assert!(
        peak <= 2 * n * c_max,
        "ensemble path allocated a {peak}-element dense matrix; \
         the largest ensemble temporary must be O(n·c) = {}",
        n * c_max
    );
    assert!(
        peak * 8 < n * n,
        "ensemble path peak {peak} is within 8x of n² = {} — a dense \
         co-association (or other n x n buffer) leaked into the path",
        n * n
    );
}
