//! Tables III & IV — FScore and NMI of all seven methods on D1–D4.
//!
//! For every dataset this runs DR-T, DR-C, DR-TC, SRC, SNMTF, RMC and
//! RHCHME with the tuned defaults (RhchmeConfig; the λ/γ scale mapping
//! versus the paper's grid is documented in `rhchme::RhchmeConfig`) and
//! prints measured-vs-paper values side by side. The shape to check:
//! two-way DR-* trail the HOCC family, SRC is the weakest HOCC method,
//! and RHCHME posts the best averages.

use mtrl_bench::{
    mean, paper, print_table, scale_from_env, scale_name, section, write_json, MethodRecord,
};
use mtrl_datagen::datasets::{load, DatasetId};
use rhchme::pipeline::{run_spec, Method};
use rhchme::RhchmeConfig;

fn main() {
    let scale = scale_from_env();
    section(&format!(
        "Tables III & IV: clustering quality (scale = {})",
        scale_name(scale)
    ));
    let params = RhchmeConfig::default();

    // measured[m][d] = (fscore, nmi)
    let mut measured = vec![vec![(0.0f64, 0.0f64); 4]; 7];
    let mut records: Vec<MethodRecord> = Vec::new();
    for (d, id) in DatasetId::all().into_iter().enumerate() {
        let corpus = load(id, scale);
        eprintln!(
            "running {} ({} docs / {} terms / {} concepts)…",
            id.paper_name(),
            corpus.num_docs(),
            corpus.num_terms(),
            corpus.num_concepts()
        );
        for (m, method) in Method::all().into_iter().enumerate() {
            let out = run_spec(&corpus, &method.into(), &params).expect("method run");
            let f = mtrl_metrics::fscore(&corpus.labels, &out.doc_labels);
            let n = mtrl_metrics::nmi(&corpus.labels, &out.doc_labels);
            measured[m][d] = (f, n);
            records.push(MethodRecord {
                method: method.paper_name().to_string(),
                dataset: id.short_name().to_string(),
                fscore: f,
                nmi: n,
                seconds: out.elapsed.as_secs_f64(),
                iterations: out.iterations,
            });
        }
    }

    for (title, select, reference) in [
        ("Table III: FScore", 0usize, &paper::FSCORE),
        ("Table IV: NMI", 1usize, &paper::NMI),
    ] {
        section(title);
        let mut rows = Vec::new();
        for (m, name) in paper::METHODS.iter().enumerate() {
            let vals: Vec<f64> = (0..4)
                .map(|d| {
                    if select == 0 {
                        measured[m][d].0
                    } else {
                        measured[m][d].1
                    }
                })
                .collect();
            let mut row = vec![name.to_string()];
            for d in 0..4 {
                row.push(format!("{:.3}", vals[d]));
                row.push(format!("({:.3})", reference[m][d]));
            }
            row.push(format!("{:.3}", mean(&vals)));
            row.push(format!("({:.3})", mean(&reference[m])));
            rows.push(row);
        }
        print_table(
            &[
                "method", "D1", "paper", "D2", "paper", "D3", "paper", "D4", "paper", "avg",
                "paper",
            ],
            &rows,
        );
    }

    // Shape checks mirroring the paper's claims.
    section("shape checks");
    let avg_f = |m: usize| mean(&(0..4).map(|d| measured[m][d].0).collect::<Vec<_>>());
    let two_way_best = avg_f(0).max(avg_f(1)).max(avg_f(2));
    let hocc_avgs: Vec<String> = (3..7).map(|m| format!("{:.3}", avg_f(m))).collect();
    println!("best two-way avg FScore: {two_way_best:.3}; HOCC avgs (SRC,SNMTF,RMC,RHCHME): {hocc_avgs:?}");
    println!(
        "RHCHME avg - SRC avg = {:+.3} (paper: +0.050)",
        avg_f(6) - avg_f(3)
    );
    println!(
        "RHCHME avg - best two-way = {:+.3} (paper: +0.211)",
        avg_f(6) - two_way_best
    );
    write_json("table3_table4_clustering", &records);
}
