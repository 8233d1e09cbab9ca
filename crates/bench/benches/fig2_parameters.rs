//! Fig. 2 — parameter sensitivity of RHCHME on R-Min20Max200 (D3).
//!
//! Sweeps λ (Laplacian weight), γ (subspace noise tolerance), α (ensemble
//! trade-off) and β (error-matrix weight), each with the others fixed at
//! their defaults — exactly the protocol of Sec. IV-E. Sweep-invariant
//! artifacts are cached (`rhchme::pipeline::Artifacts`): only the γ sweep
//! recomputes subspace learning.
//!
//! The paper's grids run on raw tf-idf matrices and an unnormalized
//! Laplacian; our conventions rescale λ and γ (see `RhchmeConfig` docs),
//! so the grids below are the paper's *shapes* transported to our scale.
//! Expected shapes: a stable plateau in λ once large enough, a mid-range
//! optimum in γ, best α near 1 (both ensemble members contribute), and a
//! broad optimum in β.

use mtrl_bench::{print_table, scale_from_env, scale_name, section, write_json};
use mtrl_datagen::datasets::{load, DatasetId};
use rhchme::pipeline::Artifacts;
use rhchme::RhchmeConfig;
use serde::Serialize;

#[derive(Serialize)]
struct SweepPoint {
    parameter: String,
    value: f64,
    fscore: f64,
    nmi: f64,
}

fn main() {
    let scale = scale_from_env();
    section(&format!(
        "Fig. 2: parameter sensitivity on {} (scale = {})",
        DatasetId::D3.paper_name(),
        scale_name(scale)
    ));
    let corpus = load(DatasetId::D3, scale);
    let params = RhchmeConfig::default();
    let max_iter = 60; // sweep budget; convergence is earlier in practice

    eprintln!("building shared artifacts…");
    let arts = Artifacts::new(&corpus, &params).expect("artifacts");
    let l_sub_default = arts.subspace_laplacian(&params).expect("subspace");

    let mut points: Vec<SweepPoint> = Vec::new();
    let run = |l_sub: &mtrl_sparse::SparseBlockDiag, alpha: f64, lambda: f64, beta: f64| {
        let cfg = RhchmeConfig {
            alpha,
            lambda,
            beta,
            max_iter,
            ..params.clone()
        };
        let res = arts.run_rhchme_engine(l_sub, &cfg).expect("engine");
        (
            mtrl_metrics::fscore(&corpus.labels, &res.doc_labels),
            mtrl_metrics::nmi(&corpus.labels, &res.doc_labels),
        )
    };

    // λ sweep (paper grid {0.001 … 1000} → plateau for large λ).
    section("lambda sweep (gamma, alpha, beta at defaults)");
    let mut rows = Vec::new();
    for &lambda in &[0.0001, 0.001, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5] {
        let (f, n) = run(&l_sub_default, params.alpha, lambda, params.beta);
        rows.push(vec![
            format!("{lambda}"),
            format!("{f:.3}"),
            format!("{n:.3}"),
        ]);
        points.push(SweepPoint {
            parameter: "lambda".into(),
            value: lambda,
            fscore: f,
            nmi: n,
        });
        eprintln!("lambda={lambda}: F={f:.3} NMI={n:.3}");
    }
    print_table(&["lambda", "FScore", "NMI"], &rows);

    // γ sweep — recomputes the subspace Laplacian per value.
    section("gamma sweep (subspace learning noise tolerance)");
    let mut rows = Vec::new();
    for &gamma in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0] {
        let l_sub = arts
            .subspace_laplacian(&RhchmeConfig {
                gamma,
                ..params.clone()
            })
            .expect("subspace");
        let (f, n) = run(&l_sub, params.alpha, params.lambda, params.beta);
        rows.push(vec![
            format!("{gamma}"),
            format!("{f:.3}"),
            format!("{n:.3}"),
        ]);
        points.push(SweepPoint {
            parameter: "gamma".into(),
            value: gamma,
            fscore: f,
            nmi: n,
        });
        eprintln!("gamma={gamma}: F={f:.3} NMI={n:.3}");
    }
    print_table(&["gamma", "FScore", "NMI"], &rows);

    // α sweep (paper grid 1/16 … 16, best near 1).
    section("alpha sweep (heterogeneous ensemble trade-off)");
    let mut rows = Vec::new();
    for &alpha in &[1.0 / 16.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let (f, n) = run(&l_sub_default, alpha, params.lambda, params.beta);
        rows.push(vec![
            format!("{alpha:.4}"),
            format!("{f:.3}"),
            format!("{n:.3}"),
        ]);
        points.push(SweepPoint {
            parameter: "alpha".into(),
            value: alpha,
            fscore: f,
            nmi: n,
        });
        eprintln!("alpha={alpha}: F={f:.3} NMI={n:.3}");
    }
    print_table(&["alpha", "FScore", "NMI"], &rows);

    // β sweep (paper grid 1 … 1000, best ≈ 50).
    section("beta sweep (sparse error matrix weight)");
    let mut rows = Vec::new();
    for &beta in &[1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 80.0, 100.0, 1000.0] {
        let (f, n) = run(&l_sub_default, params.alpha, params.lambda, beta);
        rows.push(vec![
            format!("{beta}"),
            format!("{f:.3}"),
            format!("{n:.3}"),
        ]);
        points.push(SweepPoint {
            parameter: "beta".into(),
            value: beta,
            fscore: f,
            nmi: n,
        });
        eprintln!("beta={beta}: F={f:.3} NMI={n:.3}");
    }
    print_table(&["beta", "FScore", "NMI"], &rows);

    write_json("fig2_parameters", &points);
}
