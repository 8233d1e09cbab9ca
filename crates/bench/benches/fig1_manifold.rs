//! Fig. 1 — pNN graphs vs subspace learning on intersecting manifolds.
//!
//! The paper's figure argues two failure modes of pNN graphs that
//! subspace learning fixes:
//!
//! 1. points near a manifold intersection (x, y in the figure) share the
//!    same p nearest neighbours and get linked across manifolds;
//! 2. distant within-manifold points (z in the figure) never appear in
//!    each other's pNN lists, so their relationship is lost.
//!
//! This bench quantifies both on (a) the figure's two intersecting
//! circles (quadratic-lift features) and (b) a union of linear subspaces
//! where the self-expressive model is exact.

use mtrl_bench::{print_table, section, write_json};
use mtrl_datagen::manifold::{two_circles, union_of_subspaces, NOISE_LABEL};
use mtrl_graph::{pnn_graph, GraphBackend, WeightScheme};
use mtrl_linalg::Mat;
use mtrl_subspace::{spg_affinity, SpgConfig};

fn main() {
    section("Fig. 1: intersecting manifolds — pNN vs subspace learning");

    // ------ scene (a): the paper's two circles + noise ----------------
    let (points, labels) = two_circles(80, 1.0, 0.01, 10, 2015);
    let lifted = Mat::from_fn(points.rows(), 5, |i, j| {
        let (x, y) = (points[(i, 0)], points[(i, 1)]);
        [x, y, x * x, y * y, x * y][j]
    });
    let w_pnn = pnn_graph(
        &points,
        5,
        WeightScheme::HeatKernel { sigma: -1.0 },
        &GraphBackend::Exact,
    );
    let spg = spg_affinity(
        &lifted,
        &SpgConfig {
            gamma: 40.0,
            max_iter: 250,
            ..SpgConfig::default()
        },
    )
    .expect("spg");

    let n = points.rows();
    let near_intersection: Vec<usize> = (0..n)
        .filter(|&i| {
            labels[i] != NOISE_LABEL && {
                let (x, y) = (points[(i, 0)], points[(i, 1)]);
                ((x - 0.6).powi(2) + (y.abs() - 0.8).powi(2)).sqrt() < 0.25
            }
        })
        .collect();

    let cross = |weight: &dyn Fn(usize, usize) -> f64| -> f64 {
        let mut fr = Vec::new();
        for &i in &near_intersection {
            let (mut same, mut diff) = (0.0, 0.0);
            for j in 0..n {
                if j == i || labels[j] == NOISE_LABEL {
                    continue;
                }
                let w = weight(i, j);
                if labels[j] == labels[i] {
                    same += w;
                } else {
                    diff += w;
                }
            }
            if same + diff > 0.0 {
                fr.push(diff / (same + diff));
            }
        }
        mtrl_bench::mean(&fr)
    };
    let pnn_cross = cross(&|i, j| w_pnn.get(i, j));
    let spg_cross = cross(&|i, j| 0.5 * (spg.w.get(i, j) + spg.w.get(j, i)));

    // Distant same-manifold recovery.
    let (mut pairs, mut pnn_hit, mut spg_hit) = (0usize, 0usize, 0usize);
    for i in 0..n {
        for j in i + 1..n {
            if labels[i] != labels[j] || labels[i] == NOISE_LABEL {
                continue;
            }
            let d = mtrl_linalg::vecops::sq_dist(points.row(i), points.row(j)).sqrt();
            if d > 1.5 {
                pairs += 1;
                if w_pnn.get(i, j) > 0.0 {
                    pnn_hit += 1;
                }
                if spg.w.get(i, j) + spg.w.get(j, i) > 1e-6 {
                    spg_hit += 1;
                }
            }
        }
    }

    // ------ scene (b): union of linear subspaces -----------------------
    let (sub_pts, sub_labels) = union_of_subspaces(3, 2, 8, 40, 0.02, 7);
    let w_pnn_s = pnn_graph(
        &sub_pts,
        5,
        WeightScheme::HeatKernel { sigma: -1.0 },
        &GraphBackend::Exact,
    );
    let spg_s = spg_affinity(
        &sub_pts,
        &SpgConfig {
            gamma: 15.0,
            max_iter: 250,
            ..SpgConfig::default()
        },
    )
    .expect("spg subspaces");
    let purity = |f: &dyn Fn(usize, usize) -> f64| -> f64 {
        let (mut within, mut total) = (0.0, 0.0);
        for i in 0..sub_pts.rows() {
            for j in 0..sub_pts.rows() {
                if i == j {
                    continue;
                }
                let w = f(i, j);
                total += w;
                if sub_labels[i] == sub_labels[j] {
                    within += w;
                }
            }
        }
        if total > 0.0 {
            within / total
        } else {
            0.0
        }
    };
    let pnn_purity = purity(&|i, j| w_pnn_s.get(i, j));
    let spg_purity = purity(&|i, j| 0.5 * (spg_s.w.get(i, j) + spg_s.w.get(j, i)));

    print_table(
        &[
            "diagnostic",
            "pNN graph",
            "subspace learning",
            "paper's claim",
        ],
        &[
            vec![
                "circles: cross-manifold mass at intersection".into(),
                format!("{:.1}%", pnn_cross * 100.0),
                format!("{:.1}%", spg_cross * 100.0),
                "subspace lower".into(),
            ],
            vec![
                format!("circles: distant same-manifold pairs linked (of {pairs})"),
                format!("{pnn_hit}"),
                format!("{spg_hit}"),
                "subspace higher".into(),
            ],
            vec![
                "linear subspaces: within-class affinity mass".into(),
                format!("{:.1}%", pnn_purity * 100.0),
                format!("{:.1}%", spg_purity * 100.0),
                "subspace competitive".into(),
            ],
        ],
    );
    write_json(
        "fig1_manifold",
        &serde_json::json!({
            "circles": {
                "intersection_cross_mass": {"pnn": pnn_cross, "subspace": spg_cross},
                "distant_pairs": pairs,
                "distant_linked": {"pnn": pnn_hit, "subspace": spg_hit},
            },
            "linear_subspaces": {"within_mass": {"pnn": pnn_purity, "subspace": spg_purity}},
        }),
    );
}
