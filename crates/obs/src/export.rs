//! Exporters: the versioned JSON run manifest and a Prometheus
//! text-format dump.
//!
//! The manifest carries the same provenance meta header as the
//! committed `QUALITY_*.json` / `BENCH_*.json` baselines (`git_sha`,
//! `quick`, `target_features`) so a manifest can always be matched to
//! the build that produced it. Serialisation is hand-rolled here rather
//! than via the vendored serde shim: `mtrl-obs` is a dependency leaf by
//! design (every subsystem links it), so it cannot pull in workspace or
//! vendor crates.

use crate::fit::FitTelemetry;
use crate::hist::HistogramSnapshot;
use crate::registry::Registry;

/// Manifest schema identifier; bump on breaking layout changes.
pub const MANIFEST_SCHEMA: &str = "mtrl-obs-manifest/v1";

/// Short git SHA of HEAD, or `"unknown"` outside a work tree — the
/// `git_sha` of every provenance header (run manifests here, the
/// `mtrl-eval` quality and bench summaries).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compile-time CPU features the hot kernels depend on, as a stable
/// comma-joined string — the `target_features` of every provenance
/// header. `avx2,fma` under both `target-cpu=native` (on any recent x86)
/// and CI's pinned `x86-64-v3`; empty under the generic baseline —
/// exactly the stale-flag build whose numbers must not be compared
/// against an FMA baseline.
pub fn target_features() -> String {
    let mut feats = Vec::new();
    if cfg!(target_feature = "avx2") {
        feats.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        feats.push("fma");
    }
    feats.join(",")
}

/// Escape a string for embedding in a JSON literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number (integral values keep a `.0`).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Inf/NaN; a null keeps the document parseable.
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
         \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
    )
}

fn fit_json(f: &FitTelemetry) -> String {
    let iters: Vec<String> = f
        .iters
        .iter()
        .map(|it| {
            format!(
                "{{\"objective\": {}, \"rel_change\": {}, \"er_active_rows\": {}}}",
                fmt_f64(it.objective),
                fmt_f64(it.rel_change),
                it.er_active_rows
            )
        })
        .collect();
    format!(
        "{{\"label\": {}, \"n\": {}, \"c\": {}, \"nnz\": {}, \"iterations\": {}, \
         \"converged\": {}, \"phase_ns\": {{\"spmm\": {}, \"lowrank\": {}, \
         \"update\": {}, \"residual\": {}}}, \"iters\": [{}]}}",
        json_string(&f.label),
        f.n,
        f.c,
        f.nnz,
        f.iterations,
        f.converged,
        f.spmm_ns,
        f.lowrank_ns,
        f.update_ns,
        f.residual_ns,
        iters.join(", ")
    )
}

/// Serialise the registry into the versioned JSON run manifest.
pub fn manifest_json(reg: &Registry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": {},\n",
        json_string(MANIFEST_SCHEMA)
    ));
    out.push_str(&format!(
        "  \"meta\": {{\"git_sha\": {}, \"quick\": false, \"target_features\": {}}},\n",
        json_string(&git_sha()),
        json_string(&target_features())
    ));

    let counters: Vec<String> = reg
        .counters_snapshot()
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_string(k), v))
        .collect();
    out.push_str(&format!(
        "  \"counters\": {{\n{}\n  }},\n",
        counters.join(",\n")
    ));

    let gauges: Vec<String> = reg
        .gauges_snapshot()
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_string(k), fmt_f64(*v)))
        .collect();
    out.push_str(&format!(
        "  \"gauges\": {{\n{}\n  }},\n",
        gauges.join(",\n")
    ));

    let hists: Vec<String> = reg
        .histograms_snapshot()
        .iter()
        .map(|(k, h)| format!("    {}: {}", json_string(k), hist_json(h)))
        .collect();
    out.push_str(&format!(
        "  \"histograms\": {{\n{}\n  }},\n",
        hists.join(",\n")
    ));

    let spans: Vec<String> = reg
        .spans_snapshot()
        .iter()
        .map(|(k, s)| {
            format!(
                "    {}: {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json_string(k),
                s.count,
                s.total_ns,
                s.max_ns
            )
        })
        .collect();
    out.push_str(&format!("  \"spans\": {{\n{}\n  }},\n", spans.join(",\n")));

    let fits: Vec<String> = reg
        .fits_snapshot()
        .iter()
        .map(|f| format!("    {}", fit_json(f)))
        .collect();
    out.push_str(&format!("  \"fits\": [\n{}\n  ],\n", fits.join(",\n")));

    let events: Vec<String> = reg
        .events_snapshot()
        .iter()
        .map(|e| {
            format!(
                "    {{\"kind\": {}, \"label\": {}, \"value\": {}}}",
                json_string(&e.kind),
                json_string(&e.label),
                fmt_f64(e.value)
            )
        })
        .collect();
    out.push_str(&format!("  \"events\": [\n{}\n  ]\n", events.join(",\n")));
    out.push_str("}\n");
    // Collapse the `{\n\n  }` an empty section leaves behind.
    out.replace("{\n\n  }", "{}").replace("[\n\n  ]", "[]")
}

/// Sanitise a metric name for the Prometheus exposition format.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("mtrl_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Serialise the registry in the Prometheus text exposition format.
pub fn prometheus_text(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in reg.counters_snapshot() {
        let n = prom_name(&name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in reg.gauges_snapshot() {
        let n = prom_name(&name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in reg.histograms_snapshot() {
        let n = prom_name(&name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", h.quantile(q)));
        }
        out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum(), h.count()));
    }
    for (path, s) in reg.spans_snapshot() {
        out.push_str(&format!("mtrl_span_count{{span=\"{path}\"}} {}\n", s.count));
        out.push_str(&format!(
            "mtrl_span_total_ns{{span=\"{path}\"}} {}\n",
            s.total_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{IterTelemetry, StreamEvent};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.add("serve.requests", 12);
        r.set_gauge("stream.last_confidence", 0.875);
        let h = r.histogram("serve.latency_ns");
        for v in [100u64, 200, 400, 800, 1600] {
            h.record(v);
        }
        r.record_span("rhchme.fit/graph.pnn_build", 5_000);
        r.record_fit(FitTelemetry {
            label: "engine.fit".into(),
            n: 40,
            c: 5,
            nnz: 300,
            iterations: 2,
            converged: true,
            spmm_ns: 10,
            lowrank_ns: 20,
            update_ns: 30,
            residual_ns: 40,
            iters: vec![
                IterTelemetry {
                    objective: 12.5,
                    rel_change: 0.0,
                    er_active_rows: 3,
                },
                IterTelemetry {
                    objective: 11.0,
                    rel_change: 0.12,
                    er_active_rows: 2,
                },
            ],
        });
        r.record_event(StreamEvent {
            kind: "drift_trigger".into(),
            label: "batch 4".into(),
            value: 0.31,
        });
        r
    }

    #[test]
    fn manifest_contains_all_sections() {
        let r = sample_registry();
        let m = manifest_json(&r);
        for needle in [
            "\"schema\": \"mtrl-obs-manifest/v1\"",
            "\"git_sha\"",
            "\"target_features\"",
            "\"serve.requests\": 12",
            "\"stream.last_confidence\": 0.875",
            "\"serve.latency_ns\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"rhchme.fit/graph.pnn_build\"",
            "\"er_active_rows\": 3",
            "\"drift_trigger\"",
        ] {
            assert!(m.contains(needle), "manifest missing {needle}:\n{m}");
        }
    }

    #[test]
    fn empty_registry_manifest_is_well_formed() {
        let m = manifest_json(&Registry::new());
        assert!(m.contains("\"counters\": {}"), "{m}");
        assert!(m.contains("\"fits\": []"), "{m}");
        assert!(m.contains("\"events\": []"), "{m}");
    }

    #[test]
    fn non_finite_values_become_null() {
        let r = Registry::new();
        r.set_gauge("bad", f64::NAN);
        assert!(manifest_json(&r).contains("\"bad\": null"));
    }

    #[test]
    fn prometheus_dump_has_types_and_quantiles() {
        let r = sample_registry();
        let p = prometheus_text(&r);
        assert!(p.contains("# TYPE mtrl_serve_requests counter"));
        assert!(p.contains("mtrl_serve_requests 12"));
        assert!(p.contains("# TYPE mtrl_serve_latency_ns summary"));
        assert!(p.contains("mtrl_serve_latency_ns{quantile=\"0.99\"}"));
        assert!(p.contains("mtrl_serve_latency_ns_count 5"));
        assert!(p.contains("mtrl_span_count{span=\"rhchme.fit/graph.pnn_build\"} 1"));
    }
}
