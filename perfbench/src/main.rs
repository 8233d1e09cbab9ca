//! End-to-end benchmark of the RHCHME workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_fit --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Three workloads (see `perfbench/README.md` for why each exists):
//! `cold_fit`, `ensemble_fit` and `stream_refresh`; the serving layers
//! are measured in the traced `stream_refresh` run.
//! Each generates its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs, and prints as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! `MTRL_OBS` off; with `--trace 1` they are the per-layer ones, timed
//! around the calls into each layer from this program's own code.

mod bench;
mod catalogue;
mod cold_fit;
mod ensemble_fit;
mod fit_trace;
mod fits;
mod serving;
mod stream_refresh;

use bench::{Opts, Outcome, Scale};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <cold_fit|ensemble_fit|stream_refresh> \
--seed <n> --seconds <n> --trace <0|1> [--scale <full|tiny>]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale must be full or tiny, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !catalogue::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Both passes run with the program's own instrumentation off: the
    // traced pass times layer calls from here, not through obs spans.
    mtrl_obs::force_disable();
    let mut out = Outcome::default();
    match opts.workload.as_str() {
        "cold_fit" => cold_fit::run(&opts, &mut out),
        "ensemble_fit" => ensemble_fit::run(&opts, &mut out),
        "stream_refresh" => stream_refresh::run(&opts, &mut out),
        _ => unreachable!("workload validated in parse_args"),
    }
    if !opts.trace {
        match bench::peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", mb, 1),
            None => out.fail_check("VmHWM unavailable in /proc/self/status"),
        }
    }
    bench::print_result(&opts, &out);
    ExitCode::SUCCESS
}
