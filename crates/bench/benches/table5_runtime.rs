//! Table V — running time of each method on D1–D4.
//!
//! Absolute numbers are hardware- and scale-specific (the paper reports
//! 10³-second MATLAB-era figures); what must reproduce is the *ordering*:
//! the two-way DRCC variants are an order of magnitude cheaper than the
//! HOCC methods, and within the HOCC family RHCHME is not slower than RMC
//! (RMC pays for six ensemble members per iteration — Sec. IV-G).

use mtrl_bench::{
    paper, print_table, scale_from_env, scale_name, section, write_json, MethodRecord,
};
use mtrl_datagen::datasets::{load, DatasetId};
use rhchme::pipeline::{run_spec, Method};
use rhchme::RhchmeConfig;

fn main() {
    let scale = scale_from_env();
    section(&format!(
        "Table V: running time (scale = {})",
        scale_name(scale)
    ));
    let params = RhchmeConfig::default();

    let mut seconds = vec![vec![0.0f64; 4]; 7];
    let mut records = Vec::new();
    for (d, id) in DatasetId::all().into_iter().enumerate() {
        let corpus = load(id, scale);
        eprintln!("timing {}…", id.paper_name());
        for (m, method) in Method::all().into_iter().enumerate() {
            let out = run_spec(&corpus, &method.into(), &params).expect("method run");
            seconds[m][d] = out.elapsed.as_secs_f64();
            records.push(MethodRecord {
                method: method.paper_name().to_string(),
                dataset: id.short_name().to_string(),
                fscore: mtrl_metrics::fscore(&corpus.labels, &out.doc_labels),
                nmi: mtrl_metrics::nmi(&corpus.labels, &out.doc_labels),
                seconds: seconds[m][d],
                iterations: out.iterations,
            });
        }
    }

    let mut rows = Vec::new();
    for (m, name) in paper::METHODS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (d, secs) in seconds[m].iter().enumerate() {
            row.push(format!("{secs:.2}s"));
            row.push(format!("({}ks)", paper::RUNTIME_KS[m][d]));
        }
        rows.push(row);
    }
    print_table(
        &[
            "method", "D1", "paper", "D2", "paper", "D3", "paper", "D4", "paper",
        ],
        &rows,
    );

    section("shape checks");
    let total = |m: usize| seconds[m].iter().sum::<f64>();
    let two_way_max = total(0).max(total(1)).max(total(2));
    let hocc_min = (3..7).map(total).fold(f64::INFINITY, f64::min);
    println!(
        "slowest two-way total {two_way_max:.2}s vs fastest HOCC total {hocc_min:.2}s \
         (paper: two-way an order of magnitude cheaper)"
    );
    println!(
        "RHCHME total {:.2}s vs RMC total {:.2}s (paper: RHCHME faster than RMC)",
        total(6),
        total(5)
    );
    write_json("table5_runtime", &records);
}
