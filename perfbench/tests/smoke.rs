//! Runs every workload of `BENCHMARK.json` at tiny size, untraced and
//! traced, and checks that each run is correct and prints exactly the
//! metrics `BENCHMARK.json` names, each with its unit.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<(String, Option<String>)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("a name");
            let unit = m.get("unit").and_then(Value::as_str).map(str::to_string);
            (name.to_string(), unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark_json();
    for (workload, _) in names(&spec, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(&workload, trace);
            let ctx = format!("{workload} trace {trace}");
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{ctx}"
            );
            let attempted = result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted");
            assert!(attempted >= 1.0, "{ctx}: attempted {attempted}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{ctx}"
            );
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{ctx}: no metrics object");
            };
            let expected = names(&spec, key);
            assert_eq!(metrics.len(), expected.len(), "{ctx}: metric count");
            for (name, unit) in expected {
                let m = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&name))
                    .unwrap_or_else(|| panic!("{ctx}: metric {name} missing"));
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{ctx}: {name} value"
                );
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    unit.as_deref(),
                    "{ctx}: {name} unit"
                );
            }
        }
    }
}
