//! Fig. 3 — FScore/NMI vs multiplicative-update iterations, per dataset.
//!
//! The paper shows both metrics rising through the early iterations and
//! converging "relatively quickly", with the largest dataset (R-Top10)
//! needing the most iterations. This bench records per-iteration document
//! labels (`record_doc_labels`) and prints the two curves at checkpoints,
//! along with the objective J₄ (whose monotone decrease is Theorem 1).

use mtrl_bench::{print_table, scale_from_env, scale_name, section, write_json};
use mtrl_datagen::datasets::{load, DatasetId};
use rhchme::pipeline::{run_spec, Method};
use rhchme::RhchmeConfig;
use serde::Serialize;

#[derive(Serialize)]
struct TracePoint {
    dataset: String,
    iteration: usize,
    fscore: f64,
    nmi: f64,
    objective: f64,
}

fn main() {
    let scale = scale_from_env();
    section(&format!(
        "Fig. 3: convergence curves (scale = {})",
        scale_name(scale)
    ));
    let params = RhchmeConfig {
        max_iter: 100,
        tol: 0.0, // run the full 100 iterations like the figure's x-axis
        record_doc_labels: true,
        ..RhchmeConfig::default()
    };

    let checkpoints = [1usize, 2, 5, 10, 20, 30, 50, 75, 100];
    let mut all_points = Vec::new();
    for id in DatasetId::all() {
        let corpus = load(id, scale);
        eprintln!("tracing {}…", id.paper_name());
        let out = run_spec(&corpus, &Method::Rhchme.into(), &params).expect("rhchme");
        let mut rows = Vec::new();
        for &cp in &checkpoints {
            let idx = cp.min(out.label_trace.len()) - 1;
            let f = mtrl_metrics::fscore(&corpus.labels, &out.label_trace[idx]);
            let n = mtrl_metrics::nmi(&corpus.labels, &out.label_trace[idx]);
            rows.push(vec![
                format!("{}", idx + 1),
                format!("{f:.3}"),
                format!("{n:.3}"),
                format!("{:.4}", out.objective_trace[idx]),
            ]);
            all_points.push(TracePoint {
                dataset: id.short_name().into(),
                iteration: idx + 1,
                fscore: f,
                nmi: n,
                objective: out.objective_trace[idx],
            });
        }
        section(&format!("{} ({})", id.paper_name(), id.short_name()));
        print_table(&["iteration", "FScore", "NMI", "objective J4"], &rows);

        // Theorem 1 check: J4 must be non-increasing.
        let monotone = out
            .objective_trace
            .windows(2)
            .all(|w| w[1] <= w[0] * (1.0 + 1e-5) + 1e-9);
        println!("objective monotone non-increasing: {monotone}");
    }
    write_json("fig3_convergence", &all_points);
}
