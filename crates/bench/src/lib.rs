//! # mtrl-bench
//!
//! Harness utilities shared by the table/figure bench targets.
//!
//! Every table and figure in the paper's evaluation (Sec. IV) has a bench
//! target that regenerates it:
//!
//! | target | regenerates |
//! |---|---|
//! | `table2_datasets` | Table II (dataset characteristics) |
//! | `table3_table4_clustering` | Tables III & IV (FScore / NMI, 7 methods × 4 datasets) |
//! | `table5_runtime` | Table V (running time per method and dataset) |
//! | `fig1_manifold` | Fig. 1 (pNN vs subspace neighbours on intersecting manifolds) |
//! | `fig2_parameters` | Fig. 2 (λ, γ, α, β sensitivity on R-Min20Max200) |
//! | `fig3_convergence` | Fig. 3 (FScore/NMI vs iterations, all datasets) |
//! | `micro_*` | Criterion microbenches of the hot kernels |
//!
//! Run them all with `cargo bench -p mtrl-bench`, or one with
//! `cargo bench -p mtrl-bench --bench table3_table4_clustering`.
//!
//! The experiment scale is controlled by `MTRL_SCALE` (`tiny` / `small` /
//! `paper`, default `small`); each run also writes machine-readable JSON
//! to `target/bench-results/` (README, "Reproducing the paper's
//! evaluation").

use mtrl_datagen::datasets::Scale;
use serde::Serialize;
use std::io::Write;

/// Resolve the experiment scale from the `MTRL_SCALE` env var.
pub fn scale_from_env() -> Scale {
    match std::env::var("MTRL_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("paper") => Scale::Paper,
        _ => Scale::Small,
    }
}

/// Human-readable name of a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Print a section header.
pub fn section(title: &str) {
    let bar = "=".repeat(title.len().max(8));
    println!("\n{bar}\n{title}\n{bar}");
}

/// Print an aligned table: `headers` then rows of equally many cells.
/// Column widths adapt to content; output goes through one locked,
/// buffered writer (guide: lock + buffer stdout for repeated writes).
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn write_row(out: &mut impl Write, widths: &[usize], cells: &[String]) {
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths[i] + 2;
            let _ = write!(out, "{cell:>pad$}");
        }
        let _ = writeln!(out);
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    write_row(&mut out, &widths, &header_cells);
    let total: usize = widths.iter().map(|w| w + 2).sum();
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        write_row(&mut out, &widths, row);
    }
    let _ = out.flush();
}

/// Write a JSON result artifact under `target/bench-results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/bench-results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // best effort: benches must not fail on IO
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        println!("\n[results written to {}]", path.display());
    }
}

/// Paper-reported numbers (Tables III–V) for side-by-side printing.
pub mod paper {
    /// Method names in the paper's row order.
    pub const METHODS: [&str; 7] = ["DR-T", "DR-C", "DR-TC", "SRC", "SNMTF", "RMC", "RHCHME"];

    /// Table III — FScore rows `[D1, D2, D3, D4]` per method.
    pub const FSCORE: [[f64; 4]; 7] = [
        [0.575, 0.501, 0.688, 0.576], // DR-T
        [0.426, 0.516, 0.608, 0.584], // DR-C
        [0.562, 0.526, 0.705, 0.596], // DR-TC
        [0.837, 0.714, 0.721, 0.763], // SRC
        [0.854, 0.741, 0.738, 0.797], // SNMTF
        [0.867, 0.758, 0.742, 0.803], // RMC
        [0.892, 0.777, 0.750, 0.813], // RHCHME
    ];

    /// Table IV — NMI rows `[D1, D2, D3, D4]` per method.
    pub const NMI: [[f64; 4]; 7] = [
        [0.508, 0.484, 0.682, 0.504], // DR-T
        [0.373, 0.502, 0.595, 0.513], // DR-C
        [0.492, 0.513, 0.698, 0.517], // DR-TC
        [0.822, 0.625, 0.709, 0.529], // SRC
        [0.849, 0.650, 0.728, 0.547], // SNMTF
        [0.854, 0.655, 0.740, 0.554], // RMC
        [0.861, 0.678, 0.760, 0.585], // RHCHME
    ];

    /// Table V — running time in 10³ seconds `[D1, D2, D3, D4]`.
    pub const RUNTIME_KS: [[f64; 4]; 7] = [
        [0.04, 0.05, 0.20, 0.41], // DR-T
        [0.03, 0.03, 0.14, 0.22], // DR-C
        [0.06, 0.07, 0.26, 0.51], // DR-TC
        [0.75, 0.83, 12.2, 29.3], // SRC
        [0.47, 0.54, 10.8, 24.6], // SNMTF
        [0.50, 0.58, 11.1, 25.4], // RMC
        [0.46, 0.51, 9.90, 22.8], // RHCHME
    ];

    /// Table II — dataset characteristics
    /// `(name, classes, documents, terms, concepts)`.
    pub const TABLE2: [(&str, usize, usize, usize, usize); 4] = [
        ("Multi5", 5, 500, 2000, 1667),
        ("Multi10", 10, 500, 2000, 1658),
        ("R-Min20Max200", 25, 1413, 2904, 2450),
        ("R-Top10", 10, 8023, 5146, 4109),
    ];
}

/// Serializable record of one method/dataset measurement.
#[derive(Debug, Clone, Serialize)]
pub struct MethodRecord {
    /// Method paper name.
    pub method: String,
    /// Dataset short name ("D1" …).
    pub dataset: String,
    /// Measured FScore.
    pub fscore: f64,
    /// Measured NMI.
    pub nmi: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Optimisation iterations.
    pub iterations: usize,
}

/// Pretty-print a mean column value.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // Cannot touch the env var safely in tests; just check mapping.
        assert_eq!(scale_name(Scale::Small), "small");
        assert_eq!(scale_name(Scale::Tiny), "tiny");
        assert_eq!(scale_name(Scale::Paper), "paper");
    }

    #[test]
    fn paper_tables_consistent() {
        // Sanity: RHCHME dominates every column of Table III/IV in the
        // paper — the invariant the reproduction is asked to match.
        for d in 0..4 {
            for m in 0..6 {
                assert!(paper::FSCORE[6][d] >= paper::FSCORE[m][d]);
                assert!(paper::NMI[6][d] >= paper::NMI[m][d]);
            }
        }
        assert_eq!(paper::METHODS.len(), 7);
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
