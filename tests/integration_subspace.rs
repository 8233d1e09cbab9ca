//! The support-restricted SPG solver against the dense Algorithm 1
//! oracle on a benchmark-shaped corpus: restricting each object's row of
//! `W` to its 64 largest inner products must keep the links the
//! Laplacian uses (the top `TOP_K = 10` per row).

use mtrl_subspace::{spg_affinity, SpgConfig};

#[path = "../crates/subspace/src/dense_oracle.rs"]
#[allow(dead_code)]
mod dense_oracle;

/// Links per row kept by `rhchme::intra`'s truncation.
const TOP_K: usize = 10;

/// Column indices of the `k` largest positive entries of a row, ties to
/// the lower column.
fn top_k(cols: &[usize], vals: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cols.len()).filter(|&p| vals[p] > 0.0).collect();
    order.sort_by(|&a, &b| vals[b].total_cmp(&vals[a]).then(cols[a].cmp(&cols[b])));
    order.into_iter().take(k).map(|p| cols[p]).collect()
}

#[test]
fn restricted_spg_recovers_the_dense_solvers_top_links() {
    let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
        docs_per_class: vec![110; 3],
        seed: 5 ^ mtrl_datagen::seed_from_env(0),
        ..mtrl_eval::CorpusShape::Large3.config()
    });
    let params = mtrl_eval::runner::quick_params(5);
    let data = rhchme::MultiTypeData::from_corpus(&corpus, params.feature_cluster_divisor).unwrap();
    let docs = data.features(0);
    let n = docs.rows();
    assert_eq!(n, 330);
    let cfg = SpgConfig {
        gamma: params.gamma,
        max_iter: params.spg_max_iter,
        ..SpgConfig::default()
    };

    let restricted = spg_affinity(&docs, &cfg).unwrap();
    let dense = dense_oracle::spg_dense(&docs, &cfg).unwrap();
    assert_eq!(restricted.iterations, dense.iterations);

    // A link (i, j) of the oracle's row-i top-10 is kept by the
    // restricted solver when W_ij > 0, and reaches L_S when it survives
    // the per-row truncation at either end (the symmetrised graph
    // `rhchme::intra` builds).
    let all: Vec<usize> = (0..n).collect();
    let ours: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let (cols, vals) = restricted.w.row(i);
            top_k(cols, vals, TOP_K)
        })
        .collect();
    let (mut total, mut kept, mut in_graph) = (0usize, 0usize, 0usize);
    for i in 0..n {
        for j in top_k(&all, dense.w.row(i), TOP_K) {
            total += 1;
            kept += usize::from(restricted.w.get(i, j) > 0.0);
            in_graph += usize::from(ours[i].contains(&j) || ours[j].contains(&i));
        }
    }
    let kept = kept as f64 / total as f64;
    let in_graph = in_graph as f64 / total as f64;
    assert!(
        kept >= 0.99,
        "restricted W keeps {kept:.3} of the oracle's top-{TOP_K} links"
    );
    assert!(
        in_graph >= 0.95,
        "the truncated graph keeps {in_graph:.3} of the oracle's top-{TOP_K} links"
    );
}
