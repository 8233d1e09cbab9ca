//! Fig. 1 in code: why pNN graphs fail on intersecting manifolds.
//!
//! ```sh
//! cargo run --release --example manifold_demo
//! ```
//!
//! Generates the paper's scene — two intersecting circles plus noise —
//! and compares the intra-type relationships learned by (a) the pNN graph
//! and (b) multiple subspace learning, on two diagnostics:
//!
//! * **intersection confusion** — for points near the circle crossing,
//!   what fraction of their neighbour mass links to the *other* manifold;
//! * **distant-neighbour recovery** — whether far-apart same-manifold
//!   points (the paper's point `z`) receive any affinity at all.

use mtrl_datagen::manifold::{two_circles, NOISE_LABEL};
use mtrl_graph::{pnn_graph, WeightScheme};
use mtrl_subspace::{spg_affinity, SpgConfig};

fn main() {
    let (points, labels) = two_circles(60, 1.0, 0.01, 8, 2015);
    let n = points.rows();
    println!("{} points: 2 circles x 60 + 8 noise\n", n);

    // (a) pNN graph, p = 5, as SNMTF/RMC would build it.
    let w_pnn = pnn_graph(&points, 5, WeightScheme::HeatKernel { sigma: -1.0 });

    // (b) subspace-learned affinity (Algorithm 1). Circles are not linear
    // subspaces, so we lift to the quadratic kernel features
    // (x, y, x^2, y^2, xy) where each circle IS a hyperplane slice — the
    // standard trick for manifold self-expression.
    let lifted = lift_quadratic(&points);
    let spg = spg_affinity(
        &lifted,
        &SpgConfig {
            gamma: 200.0,
            max_iter: 150,
            ..SpgConfig::default()
        },
    )
    .expect("spg");

    // Intersection points: close to both centres' crossing region
    // (x ~ 0.6, y ~ +-0.8 for unit circles 1.2 apart).
    let near_intersection: Vec<usize> = (0..n)
        .filter(|&i| {
            labels[i] != NOISE_LABEL && {
                let (x, y) = (points[(i, 0)], points[(i, 1)]);
                ((x - 0.6).powi(2) + (y.abs() - 0.8).powi(2)).sqrt() < 0.25
            }
        })
        .collect();
    println!(
        "{} points lie near the circle intersection",
        near_intersection.len()
    );

    let confusion_pnn = cross_manifold_mass(&near_intersection, &labels, |i, j| w_pnn.get(i, j));
    let confusion_spg = cross_manifold_mass(&near_intersection, &labels, |i, j| {
        0.5 * (spg.w.get(i, j) + spg.w.get(j, i))
    });
    println!("cross-manifold neighbour mass at the intersection:");
    println!("  pNN graph        : {:.1}%", confusion_pnn * 100.0);
    println!("  subspace learning: {:.1}%", confusion_spg * 100.0);

    // Distant same-manifold recovery: pairs on the same circle separated
    // by > 1.5 radius. pNN (p=5) gives them zero weight by construction;
    // count how many such pairs the subspace affinity connects.
    let mut distant_pairs = 0usize;
    let mut spg_connected = 0usize;
    let mut pnn_connected = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            if labels[i] != labels[j] || labels[i] == NOISE_LABEL {
                continue;
            }
            let d = mtrl_linalg::vecops::sq_dist(points.row(i), points.row(j)).sqrt();
            if d > 1.5 {
                distant_pairs += 1;
                if spg.w.get(i, j) + spg.w.get(j, i) > 1e-6 {
                    spg_connected += 1;
                }
                if w_pnn.get(i, j) > 0.0 {
                    pnn_connected += 1;
                }
            }
        }
    }
    println!("\ndistant same-manifold pairs (gap > 1.5r): {distant_pairs}");
    println!(
        "  connected by pNN      : {} ({:.1}%)",
        pnn_connected,
        100.0 * pnn_connected as f64 / distant_pairs.max(1) as f64
    );
    println!(
        "  connected by subspaces: {} ({:.1}%)",
        spg_connected,
        100.0 * spg_connected as f64 / distant_pairs.max(1) as f64
    );
    println!("\n(the paper's Fig. 1 claim: subspace learning links distant");
    println!(" within-manifold points and separates the intersection better)");
}

/// Quadratic monomial lift (x, y) -> (x, y, x², y², xy).
fn lift_quadratic(points: &mtrl_linalg::Mat) -> mtrl_linalg::Mat {
    mtrl_linalg::Mat::from_fn(points.rows(), 5, |i, j| {
        let (x, y) = (points[(i, 0)], points[(i, 1)]);
        match j {
            0 => x,
            1 => y,
            2 => x * x,
            3 => y * y,
            _ => x * y,
        }
    })
}

/// Fraction of neighbour mass that crosses manifolds, averaged over `idx`.
fn cross_manifold_mass(
    idx: &[usize],
    labels: &[usize],
    weight: impl Fn(usize, usize) -> f64,
) -> f64 {
    let mut fractions = Vec::new();
    for &i in idx {
        let (mut same, mut cross) = (0.0, 0.0);
        for j in 0..labels.len() {
            if j == i || labels[j] == NOISE_LABEL {
                continue;
            }
            let w = weight(i, j);
            if labels[j] == labels[i] {
                same += w;
            } else {
                cross += w;
            }
        }
        if same + cross > 0.0 {
            fractions.push(cross / (same + cross));
        }
    }
    mtrl_linalg::vecops::mean(&fractions)
}
