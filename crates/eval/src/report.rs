//! Shared report plumbing: metadata stamps, summary IO, markdown tables.
//!
//! Both gated report families — the perf summaries (`BENCH_*.json`,
//! written by the vendored criterion shim) and the quality reports
//! (`QUALITY_*.json`, written by [`QualityReport`]) — carry the same
//! `meta` header:
//!
//! ```json
//! "meta": {
//!   "git_sha": "a63530c",            // informational
//!   "quick": true,                   // quick-mode marker — gated
//!   "target_features": "avx2,fma"    // CPU-flag marker — gated
//! }
//! ```
//!
//! A gate refuses to compare two summaries whose `quick` or
//! `target_features` fields disagree: means measured under different
//! sample budgets or instruction sets are not comparable (see ROADMAP's
//! perf-baseline note), and a silent comparison produces bogus verdicts.
//! `git_sha` is informational — baselines are *supposed* to come from an
//! older commit.
//!
//! Quality reports additionally record the seed matrix, which the gate
//! also pins: quality means over different seed sets are different
//! experiments.

use mtrl_obs::export::{git_sha, target_features};
use serde_json::Value;

/// Schema tag of quality reports.
pub(crate) const QUALITY_SCHEMA: &str = "mtrl-quality-report/v1";

/// Schema tag of bench summaries (written by the criterion shim).
pub(crate) const BENCH_SCHEMA: &str = "mtrl-bench-summary/v1";

/// The metadata header shared by bench and quality summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportMeta {
    /// Commit the report was generated from (informational).
    pub git_sha: String,
    /// Whether the run used the reduced quick budget.
    pub quick: bool,
    /// Comma-joined CPU features the binary was compiled for.
    pub target_features: String,
    /// Seed matrix of a quality run (empty for bench summaries).
    pub seeds: Vec<u64>,
}

impl ReportMeta {
    /// Stamp a meta header for a run of this process: best-effort git
    /// sha, the compile-time CPU features, and the given quick marker
    /// and seed set.
    pub fn stamp(quick: bool, seeds: &[u64]) -> Self {
        ReportMeta {
            git_sha: git_sha(),
            quick,
            target_features: target_features(),
            seeds: seeds.to_vec(),
        }
    }

    /// Parse the `meta` object of a summary, if present.
    pub(crate) fn from_value(root: &Value) -> Option<Self> {
        let meta = root.get("meta")?;
        Some(ReportMeta {
            git_sha: meta
                .get("git_sha")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            quick: meta.get("quick").and_then(Value::as_bool).unwrap_or(false),
            target_features: meta
                .get("target_features")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            seeds: meta
                .get("seeds")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_f64())
                        .map(|f| f as u64)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Render the header as ordered JSON fields (without braces).
    pub fn json_fields(&self) -> String {
        let mut out = format!(
            "\"git_sha\": {}, \"quick\": {}, \"target_features\": {}",
            json_string(&self.git_sha),
            self.quick,
            json_string(&self.target_features),
        );
        if !self.seeds.is_empty() {
            let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(", \"seeds\": [{}]", seeds.join(", ")));
        }
        out
    }
}

/// A malformed `meta.seeds` array (present but with non-integer
/// entries), which the lossy `ReportMeta` parse would otherwise turn
/// into an empty seed set — silently disabling the seed-matrix pin.
fn malformed_seeds(root: &Value) -> Option<String> {
    let seeds = root.get("meta")?.get("seeds")?;
    let Some(arr) = seeds.as_array() else {
        return Some(format!("'seeds' is a {}, not an array", seeds.kind()));
    };
    for v in arr {
        match v.as_f64() {
            Some(f) if f >= 0.0 && f == f.trunc() && f < 9e15 => {}
            _ => return Some(format!("'seeds' has a non-integer entry ({})", v.kind())),
        }
    }
    None
}

/// Check that two summaries were produced under comparable conditions.
///
/// Returns human-readable warnings (missing headers — legacy summaries)
/// on success.
///
/// # Errors
/// Returns a message naming the mismatched field when `quick`,
/// `target_features` or (when both record one) the seed matrix
/// disagree, or when either side's seed array is malformed.
pub fn check_meta(base: &Value, current: &Value) -> Result<Vec<String>, String> {
    for (label, root) in [("baseline", base), ("current", current)] {
        if let Some(problem) = malformed_seeds(root) {
            return Err(format!("{label} meta header is malformed: {problem}"));
        }
    }
    let (b, c) = (
        ReportMeta::from_value(base),
        ReportMeta::from_value(current),
    );
    match (b, c) {
        (Some(b), Some(c)) => {
            if b.quick != c.quick {
                return Err(format!(
                    "quick-mode marker mismatch: baseline quick={} vs current quick={} — \
                     means from different sample budgets are not comparable; rerun with \
                     matching MTRL_BENCH_QUICK / --full settings or refresh the baseline",
                    b.quick, c.quick
                ));
            }
            if b.target_features != c.target_features {
                return Err(format!(
                    "target-cpu feature mismatch: baseline [{}] vs current [{}] — \
                     numbers are only comparable between builds with the same target-cpu \
                     flags; rebuild with matching RUSTFLAGS or refresh the baseline",
                    b.target_features, c.target_features
                ));
            }
            if !b.seeds.is_empty() && !c.seeds.is_empty() && b.seeds != c.seeds {
                return Err(format!(
                    "seed matrix mismatch: baseline {:?} vs current {:?} — quality means \
                     over different seed sets are different experiments",
                    b.seeds, c.seeds
                ));
            }
            Ok(Vec::new())
        }
        (b, c) => {
            let mut warnings = Vec::new();
            if b.is_none() {
                warnings.push("baseline has no meta header (legacy summary); flag/quick-mode staleness cannot be checked".to_string());
            }
            if c.is_none() {
                warnings.push("current summary has no meta header; flag/quick-mode staleness cannot be checked".to_string());
            }
            Ok(warnings)
        }
    }
}

/// Require the two `results` key sets to be identical and non-empty,
/// naming every missing key.
///
/// # Errors
/// Returns a message listing the keys present in only one side, or a
/// message when there is nothing to compare at all (a gate over zero
/// entries must not report success).
pub fn check_entry_sets(base_keys: &[String], current_keys: &[String]) -> Result<(), String> {
    if base_keys.is_empty() && current_keys.is_empty() {
        return Err(
            "no entries to compare: both summaries have empty 'results' sets — \
             a gate over nothing must not pass"
                .to_string(),
        );
    }
    let missing_in_current: Vec<&String> = base_keys
        .iter()
        .filter(|k| !current_keys.contains(k))
        .collect();
    let missing_in_baseline: Vec<&String> = current_keys
        .iter()
        .filter(|k| !base_keys.contains(k))
        .collect();
    if missing_in_current.is_empty() && missing_in_baseline.is_empty() {
        return Ok(());
    }
    let mut msg = String::from("baseline and current summaries disagree on entry sets:");
    for k in &missing_in_current {
        msg.push_str(&format!(
            "\n  '{k}' is in the baseline but missing from the current run"
        ));
    }
    for k in &missing_in_baseline {
        msg.push_str(&format!(
            "\n  '{k}' is in the current run but has no baseline (refresh the committed baseline to gate it)"
        ));
    }
    msg.push_str(
        "\nrefresh the committed baseline in the same change that adds or renames entries",
    );
    Err(msg)
}

/// Render a GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        debug_assert_eq!(row.len(), headers.len(), "ragged markdown row");
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Append markdown to the file named by `$GITHUB_STEP_SUMMARY` (the CI
/// job-summary panel); a no-op when the variable is unset (local runs).
pub fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{markdown}");
    }
}

/// Load and parse a JSON summary file.
///
/// # Errors
/// Returns a message naming the path on IO or parse failure.
pub fn load_summary(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

/// Escape a string into a JSON literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mean and (sample) standard deviation of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Mean across the seed matrix.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub sd: f64,
}

impl Stat {
    /// Aggregate a slice of per-seed values.
    ///
    /// # Panics
    /// Panics on an empty slice (a scenario always has ≥ 1 seed).
    pub(crate) fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "no values to aggregate");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let sd = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        Stat { mean, sd }
    }
}

/// Aggregated quality of one scenario across the seed matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// Scenario key (`corruption/method` or `path/corruption`).
    pub name: String,
    /// FScore across seeds.
    pub fscore: Stat,
    /// NMI across seeds.
    pub nmi: Stat,
    /// Adjusted Rand index across seeds.
    pub ari: Stat,
    /// How many seeds the stats aggregate.
    pub seeds: usize,
}

/// A versioned, metadata-stamped quality report (`QUALITY_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Provenance header.
    pub meta: ReportMeta,
    /// Per-scenario aggregates, in registry order.
    pub scenarios: Vec<ScenarioStats>,
}

impl QualityReport {
    /// Serialize in the stable on-disk layout (deterministic field and
    /// scenario order, shortest-round-trip floats).
    pub fn to_json(&self) -> String {
        let mut body = format!(
            "{{\n  \"schema\": {},\n  \"meta\": {{ {} }},\n  \"results\": {{",
            json_string(QUALITY_SCHEMA),
            self.meta.json_fields()
        );
        for (idx, s) in self.scenarios.iter().enumerate() {
            if idx > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "\n    {}: {{ \"fscore_mean\": {}, \"fscore_sd\": {}, \
                 \"nmi_mean\": {}, \"nmi_sd\": {}, \"ari_mean\": {}, \"ari_sd\": {}, \
                 \"seeds\": {} }}",
                json_string(&s.name),
                fmt_f64(s.fscore.mean),
                fmt_f64(s.fscore.sd),
                fmt_f64(s.nmi.mean),
                fmt_f64(s.nmi.sd),
                fmt_f64(s.ari.mean),
                fmt_f64(s.ari.sd),
                s.seeds
            ));
        }
        body.push_str("\n  }\n}\n");
        body
    }

    /// Parse a report produced by [`Self::to_json`].
    ///
    /// # Errors
    /// Returns a message on malformed JSON, a wrong schema tag, or a
    /// missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        Self::from_value(&value)
    }

    /// Parse a report from an already-loaded value tree.
    ///
    /// # Errors
    /// Returns a message on a wrong schema tag or a missing field.
    pub(crate) fn from_value(value: &Value) -> Result<Self, String> {
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing 'schema' tag".to_string())?;
        if schema != QUALITY_SCHEMA {
            return Err(format!(
                "schema mismatch: expected '{QUALITY_SCHEMA}', found '{schema}'"
            ));
        }
        let meta =
            ReportMeta::from_value(value).ok_or_else(|| "missing 'meta' header".to_string())?;
        let results = value
            .get("results")
            .ok_or_else(|| "missing 'results' object".to_string())?;
        let Value::Object(pairs) = results else {
            return Err("'results' is not an object".to_string());
        };
        let mut scenarios = Vec::with_capacity(pairs.len());
        for (name, v) in pairs {
            let field = |key: &str| -> Result<f64, String> {
                v.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("scenario '{name}' lacks numeric '{key}'"))
            };
            scenarios.push(ScenarioStats {
                name: name.clone(),
                fscore: Stat {
                    mean: field("fscore_mean")?,
                    sd: field("fscore_sd")?,
                },
                nmi: Stat {
                    mean: field("nmi_mean")?,
                    sd: field("nmi_sd")?,
                },
                ari: Stat {
                    mean: field("ari_mean")?,
                    sd: field("ari_sd")?,
                },
                seeds: field("seeds")? as usize,
            });
        }
        Ok(QualityReport { meta, scenarios })
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9e15 {
        format!("{}.0", v.trunc() as i64)
    } else {
        format!("{v:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> QualityReport {
        QualityReport {
            meta: ReportMeta {
                git_sha: "abc1234".into(),
                quick: true,
                target_features: "avx2,fma".into(),
                seeds: vec![11, 23, 37],
            },
            scenarios: vec![
                ScenarioStats {
                    name: "clean/rhchme".into(),
                    fscore: Stat {
                        mean: 0.9125,
                        sd: 0.01,
                    },
                    nmi: Stat {
                        mean: 0.85,
                        sd: 0.02,
                    },
                    ari: Stat { mean: 0.8, sd: 0.0 },
                    seeds: 3,
                },
                ScenarioStats {
                    name: "drift/stream_warm".into(),
                    fscore: Stat {
                        mean: 0.75,
                        sd: 0.0,
                    },
                    nmi: Stat { mean: 0.7, sd: 0.0 },
                    ari: Stat { mean: 0.6, sd: 0.0 },
                    seeds: 3,
                },
            ],
        }
    }

    #[test]
    fn quality_report_round_trips() {
        let r = report();
        let text = r.to_json();
        let back = QualityReport::from_json(&text).unwrap();
        assert_eq!(r, back);
        // Bit-exact float round-trip (shortest {:?} formatting).
        assert_eq!(back.scenarios[0].fscore.mean, 0.9125);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let text = r#"{"schema": "something-else/v1", "meta": {}, "results": {}}"#;
        let err = QualityReport::from_json(text).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn from_json_names_missing_field() {
        let text = format!(
            "{{\"schema\": {}, \"meta\": {{\"git_sha\": \"x\", \"quick\": false, \
             \"target_features\": \"\"}}, \"results\": {{\"a/b\": {{\"fscore_mean\": 0.5}}}}}}",
            json_string(QUALITY_SCHEMA)
        );
        let err = QualityReport::from_json(&text).unwrap_err();
        assert!(err.contains("'a/b'") && err.contains("fscore_sd"), "{err}");
    }

    #[test]
    fn meta_mismatch_is_detected() {
        let mk = |quick: bool, feats: &str| -> Value {
            serde_json::from_str(&format!(
                "{{\"meta\": {{\"git_sha\": \"x\", \"quick\": {quick}, \
                 \"target_features\": \"{feats}\"}}, \"results\": {{}}}}"
            ))
            .unwrap()
        };
        assert!(check_meta(&mk(true, "avx2,fma"), &mk(true, "avx2,fma"))
            .unwrap()
            .is_empty());
        let err = check_meta(&mk(true, "avx2,fma"), &mk(false, "avx2,fma")).unwrap_err();
        assert!(err.contains("quick-mode"), "{err}");
        let err = check_meta(&mk(true, "avx2,fma"), &mk(true, "")).unwrap_err();
        assert!(err.contains("target-cpu"), "{err}");
    }

    #[test]
    fn seed_matrix_mismatch_is_detected() {
        let mk = |seeds: &str| -> Value {
            serde_json::from_str(&format!(
                "{{\"meta\": {{\"git_sha\": \"x\", \"quick\": true, \
                 \"target_features\": \"fma\", \"seeds\": {seeds}}}}}"
            ))
            .unwrap()
        };
        assert!(check_meta(&mk("[1, 2]"), &mk("[1, 2]")).is_ok());
        let err = check_meta(&mk("[1, 2]"), &mk("[1, 3]")).unwrap_err();
        assert!(err.contains("seed matrix"), "{err}");
    }

    #[test]
    fn missing_meta_warns_but_passes() {
        let legacy: Value = serde_json::from_str("{\"results\": {}}").unwrap();
        let stamped: Value = serde_json::from_str(
            "{\"meta\": {\"git_sha\": \"x\", \"quick\": true, \"target_features\": \"fma\"}}",
        )
        .unwrap();
        let warnings = check_meta(&legacy, &stamped).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("baseline has no meta"));
    }

    #[test]
    fn entry_set_diff_names_keys() {
        let base = vec!["a".to_string(), "b".to_string()];
        let cur = vec!["b".to_string(), "c".to_string()];
        let err = check_entry_sets(&base, &cur).unwrap_err();
        assert!(
            err.contains("'a'") && err.contains("missing from the current run"),
            "{err}"
        );
        assert!(
            err.contains("'c'") && err.contains("has no baseline"),
            "{err}"
        );
        assert!(check_entry_sets(&base, &base).is_ok());
    }

    #[test]
    fn empty_entry_sets_are_an_error() {
        let err = check_entry_sets(&[], &[]).unwrap_err();
        assert!(err.contains("no entries to compare"), "{err}");
    }

    #[test]
    fn malformed_seed_array_is_an_error() {
        let good: Value = serde_json::from_str(
            "{\"meta\": {\"git_sha\": \"x\", \"quick\": true, \
             \"target_features\": \"fma\", \"seeds\": [1, 2]}}",
        )
        .unwrap();
        let stringy: Value = serde_json::from_str(
            "{\"meta\": {\"git_sha\": \"x\", \"quick\": true, \
             \"target_features\": \"fma\", \"seeds\": [\"11\", \"23\"]}}",
        )
        .unwrap();
        let err = check_meta(&good, &stringy).unwrap_err();
        assert!(
            err.contains("current meta header is malformed") && err.contains("non-integer"),
            "{err}"
        );
        let not_array: Value = serde_json::from_str(
            "{\"meta\": {\"git_sha\": \"x\", \"quick\": true, \
             \"target_features\": \"fma\", \"seeds\": 7}}",
        )
        .unwrap();
        let err = check_meta(&not_array, &good).unwrap_err();
        assert!(
            err.contains("baseline") && err.contains("not an array"),
            "{err}"
        );
    }

    #[test]
    fn stat_aggregation() {
        let s = Stat::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.sd - 1.0).abs() < 1e-12);
        let single = Stat::from_values(&[0.5]);
        assert_eq!(single.sd, 0.0);
    }

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(
            &["scenario", "F"],
            &[vec!["clean/src".into(), "0.9".into()]],
        );
        assert_eq!(md.lines().count(), 3);
        assert!(md.contains("| clean/src | 0.9 |"));
    }

    #[test]
    fn target_features_reports_compiled_features() {
        // Built with .cargo/config.toml's target-cpu=native (or CI's
        // x86-64-v3), both of which include fma on this project's
        // supported hosts; the exact content matters less than stability.
        assert_eq!(target_features(), target_features());
    }
}
