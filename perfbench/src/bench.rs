//! Shared harness: options, operation and check accounting, sample
//! statistics, provenance and the result line.

use crate::catalogue::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Input size of every workload. `Tiny` exists for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// `full` at full scale, `tiny` otherwise.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }

    fn key(self) -> &'static str {
        self.pick("full", "tiny")
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Opts {
    /// When the measured phase must stop taking new repetitions.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Keep repeating while fewer than `min` samples exist or time is left.
pub fn more(samples: usize, min: usize, deadline: Instant) -> bool {
    samples < min || Instant::now() < deadline
}

/// What a run counted, checked and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Descriptions of failed checks and operations, first few kept.
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    meta: BTreeMap<&'static str, String>,
}

const MAX_PROBLEMS: usize = 8;

impl Outcome {
    fn note(&mut self, msg: String) {
        if self.problems.len() < MAX_PROBLEMS {
            eprintln!("perfbench: {msg}");
            self.problems.push(msg);
        }
    }

    /// Count one operation; an `Err` counts as failed and yields `None`.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// A check on an operation already counted: failing it fails that
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            let msg = what();
            self.note(format!("check failed: {msg}"));
        }
        ok
    }

    /// A check outside any counted operation: counts as one failed
    /// operation of its own.
    pub fn fail_check(&mut self, what: &str) {
        self.attempted += 1;
        self.check(false, || what.to_string());
    }

    /// Record a metric and the sample count it rests on.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            crate::catalogue::unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Record a provenance field.
    pub fn meta(&mut self, key: &'static str, value: impl Display) {
        self.meta.insert(key, value.to_string());
    }

    /// `true` when every operation succeeded and at least one ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The `CorpusShape::Large3` generator configuration (150 terms, 40
/// concepts) with `docs_per_class` documents in each of its 3 classes.
pub fn large3(docs_per_class: usize, seed: u64) -> mtrl_datagen::CorpusConfig {
    mtrl_datagen::CorpusConfig {
        docs_per_class: vec![docs_per_class; 3],
        seed,
        ..mtrl_eval::CorpusShape::Large3.config()
    }
}

/// Compare `labels` with the reference, taking them as the reference
/// when there is none yet.
pub fn same_as_reference(reference: &mut Option<Vec<usize>>, labels: &[usize]) -> bool {
    match reference {
        Some(r) => r.as_slice() == labels,
        None => {
            *reference = Some(labels.to_vec());
            true
        }
    }
}

/// FNV-1a digest of label vectors, printed in `meta` so the untraced and
/// the traced run of one seed can be compared across processes.
pub fn labels_digest<'a>(labels: impl IntoIterator<Item = &'a [usize]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in labels {
        for &x in v.iter().chain(std::iter::once(&usize::MAX)) {
            for b in (x as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// p99, or the highest of p95 / p90 / p50 that has at least ten samples
/// beyond it when p99 has fewer, as `(quantile, value)`.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = [0.99, 0.95, 0.9]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5);
    if n == 0 {
        return (q, 0.0);
    }
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (q, v[idx])
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` and return its value with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Run `f` with the dense-allocation high-water mark reset, returning
/// its value, wall time and the largest dense matrix (in elements) it
/// allocated.
pub fn timed_peak<T>(f: impl FnOnce() -> T) -> (T, Duration, usize) {
    mtrl_linalg::mat::alloc_peak::reset();
    let (v, d) = timed(f);
    (v, d, mtrl_linalg::mat::alloc_peak::peak_elems())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kernel threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// HEAD of the checkout when it is a git work tree (read from `.git`
/// in the working directory, without running git), else `unknown`.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head),
    };
    sha.map_or_else(|| "unknown".into(), |s| s.chars().take(12).collect())
}

/// Compile-time SIMD features, comma-joined (as in `BENCH_*.json`).
fn target_features() -> String {
    let mut feats = Vec::new();
    if cfg!(target_feature = "avx2") {
        feats.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        feats.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        feats.push("avx512f");
    }
    feats.join(",")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string())).expect("a string serialises")
}

fn json_num(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    serde_json::to_string(&serde_json::Value::Number(v)).expect("a number serialises")
}

/// Print the human-readable metric lines, the provenance line, and the
/// result object as the last line of standard output.
pub fn print_result(opts: &Opts, out: &Outcome) {
    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let n = out.samples.get(name).copied().unwrap_or(0);
        println!("{name:<28} {value:>14.6} {unit:<6} n={n}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    let mut meta = vec![
        ("schema", json_str("perfbench/v1")),
        ("workload", json_str(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", json_num(opts.seconds)),
        ("trace", (opts.trace as u8).to_string()),
        ("scale", json_str(opts.scale.key())),
        ("git_sha", json_str(&git_sha())),
        ("nproc", nproc().to_string()),
        (
            "kernel_threads",
            mtrl_linalg::par::num_threads().to_string(),
        ),
        ("target_features", json_str(&target_features())),
    ];
    for (k, v) in &out.meta {
        meta.push((k, json_str(v)));
    }
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect();
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!(
        "meta {{{}, \"samples\": {{{}}}}}",
        meta.join(", "),
        samples.join(", ")
    );
    // A run that attempted nothing reports itself as one failed attempt.
    let (attempted, failed) = if out.attempted == 0 {
        (1, 1)
    } else {
        (out.attempted, out.failed)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.correct(),
        metrics.join(", ")
    );
}
