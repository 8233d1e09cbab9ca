//! Sampled exact-recall probe: the correctness oracle of the subsystem.
//!
//! Manifold-regularised factorisation is sensitive to graph quality
//! (RMC's candidate ensembles exist precisely because of it), so an
//! approximate backend must ship with a *measured* recall figure, not
//! just a speedup. The probe draws a seeded row sample, computes each
//! sampled row's exact `p` nearest neighbours with the blocked Gram
//! kernel (`cross_sq_dist_map` strips + the shared total-order
//! selection — bit-identical to `knn_indices` on those rows), queries
//! the approximate index for the same rows, and reports the mean
//! overlap fraction: recall@p.
//!
//! Everything is deterministic: the sample is a pure function of the
//! probe seed, the exact side is thread-count invariant by the kernel
//! contract, and the approximate side is a pure per-row function of the
//! built index.

use super::{select_from_candidates, GraphBackend, QueryScratch, RpForestIndex};
use crate::knn::{cross_sq_dist_map, select_p_nearest, CentredRows};
use mtrl_linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probe configuration: how many rows to sample and with what seed.
#[derive(Debug, Clone, Copy)]
pub struct RecallProbe {
    /// Rows sampled (without replacement, clamped to `n`).
    pub samples: usize,
    /// Sampling seed (callers typically derive it from `MTRL_SEED`).
    pub seed: u64,
}

impl Default for RecallProbe {
    fn default() -> Self {
        RecallProbe {
            samples: 64,
            seed: 0x00_5A_3B_1E,
        }
    }
}

/// Result of one probe run.
#[derive(Debug, Clone, Copy)]
pub struct RecallResult {
    /// Mean `|approx ∩ exact| / |exact|` over the sampled rows.
    pub recall_at_p: f64,
    /// Rows actually sampled (≤ `probe.samples`).
    pub samples: usize,
    /// Neighbour-list length probed.
    pub p: usize,
}

/// Measure recall@p of `backend` on `data`.
///
/// [`GraphBackend::Exact`] trivially reports recall 1.0 (it *is* the
/// reference). `threads` only affects wall-clock, never the result.
pub fn sampled_recall(
    data: &Mat,
    p: usize,
    backend: &GraphBackend,
    probe: &RecallProbe,
    threads: usize,
) -> RecallResult {
    let n = data.rows();
    let samples = sample_indices(n, probe.samples, probe.seed);
    let params = match backend {
        GraphBackend::RpForest(params) if !samples.is_empty() && p > 0 => params,
        _ => {
            return RecallResult {
                recall_at_p: 1.0,
                samples: samples.len(),
                p,
            }
        }
    };
    let centred = CentredRows::new(data);
    let (centered, sq_norms) = (&centred.rows, &centred.sq_norms);

    // Exact reference lists for the sampled rows only: one blocked
    // strip per sample against the full corpus, O(samples · n · d).
    let queries = Mat::from_rows(
        &samples
            .iter()
            .map(|&i| centered.row(i).to_vec())
            .collect::<Vec<_>>(),
    )
    .expect("rectangular sample");
    let q_norms: Vec<f64> = samples.iter().map(|&i| sq_norms[i]).collect();
    let exact: Vec<Vec<usize>> = cross_sq_dist_map(
        &queries,
        &q_norms,
        centered,
        sq_norms,
        threads,
        |q, strip| {
            let own = samples[q];
            let mut scratch: Vec<(f64, usize)> = strip
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != own)
                .map(|(j, &d)| (d, j))
                .collect();
            select_p_nearest(&mut scratch, p)
        },
    );

    let ids: Vec<usize> = (0..n).collect();
    let index = RpForestIndex::build(centered, &ids, params);
    let mut cands = Vec::new();
    let mut scratch = QueryScratch::default();
    let mut total = 0.0;
    for (q, &i) in samples.iter().enumerate() {
        cands.clear();
        index.candidates_into(centered.row(i), &mut cands);
        let approx = select_from_candidates(&centred, i, &mut cands, p, &mut scratch);
        let truth = &exact[q];
        if truth.is_empty() {
            total += 1.0;
            continue;
        }
        // Both lists are index-sorted: count the overlap with one merge.
        let mut hits = 0usize;
        let (mut a, mut b) = (0usize, 0usize);
        while a < approx.len() && b < truth.len() {
            match approx[a].cmp(&truth[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    hits += 1;
                    a += 1;
                    b += 1;
                }
            }
        }
        total += hits as f64 / truth.len() as f64;
    }
    RecallResult {
        recall_at_p: total / samples.len() as f64,
        samples: samples.len(),
        p,
    }
}

/// Seeded sample without replacement: partial Fisher-Yates over
/// `0..n`, returned sorted for deterministic iteration order.
fn sample_indices(n: usize, samples: usize, seed: u64) -> Vec<usize> {
    let k = samples.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut pool: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::RpForestParams;
    use mtrl_linalg::random::rand_normal;

    /// Clustered data: the workload the subsystem is built for.
    fn blobs(per: usize, d: usize, seed: u64) -> Mat {
        let noise = rand_normal(4 * per, d, 0.0, 0.5, seed);
        Mat::from_fn(4 * per, d, |i, j| {
            let c = (i / per) as f64;
            10.0 * c * ((j % 4 == (i / per) % 4) as u8 as f64) + noise[(i, j)]
        })
    }

    #[test]
    fn exhaustive_settings_reach_recall_one() {
        let data = blobs(40, 8, 21);
        let probe = RecallProbe {
            samples: 32,
            seed: 5,
        };
        let backend = GraphBackend::RpForest(RpForestParams {
            probes: usize::MAX,
            ..RpForestParams::default()
        });
        let r = sampled_recall(&data, 5, &backend, &probe, 2);
        assert_eq!(r.recall_at_p, 1.0);
        assert_eq!(r.samples, 32);
    }

    #[test]
    fn default_forest_hits_high_recall_on_blobs() {
        let data = blobs(100, 8, 22);
        let backend = GraphBackend::RpForest(RpForestParams::default());
        let r = sampled_recall(&data, 5, &backend, &RecallProbe::default(), 2);
        assert!(r.recall_at_p >= 0.9, "{}", r.recall_at_p);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let data = blobs(50, 6, 23);
        let backend = GraphBackend::RpForest(RpForestParams::default());
        let probe = RecallProbe {
            samples: 24,
            seed: 9,
        };
        let r1 = sampled_recall(&data, 4, &backend, &probe, 1);
        let r4 = sampled_recall(&data, 4, &backend, &probe, 4);
        assert_eq!(r1.recall_at_p.to_bits(), r4.recall_at_p.to_bits());
    }

    #[test]
    fn exact_backend_is_trivially_perfect() {
        let data = blobs(10, 4, 24);
        let r = sampled_recall(&data, 3, &GraphBackend::Exact, &RecallProbe::default(), 1);
        assert_eq!(r.recall_at_p, 1.0);
    }
}
