//! Paired-sample gate on the observability layer's hot-loop overhead.
//!
//! ```text
//! obs_overhead [--tolerance 0.02] [--samples 21]
//! ```
//!
//! The obs contract says the instrumented engine and graph hot loops run
//! within 2% of the uninstrumented ones. Gating that via two *separate*
//! criterion runs (off-baseline, then `MTRL_OBS=1`) cannot work at a 2%
//! tolerance: minutes-apart process means on shared CI runners drift by
//! ±10% from scheduling noise alone — far above the signal. This bin
//! measures the delta the only way a 2% bar survives: the off and on
//! fits alternate *within one process* (`force_disable`/`force_enable`
//! around the same workload), so slow machine drift hits both arms
//! equally, and the gate compares paired medians rather than means, so
//! one descheduled sample cannot fail the build.
//!
//! Workloads are the gated hot loops themselves: the `micro_engine`
//! sparse multiplicative-update step (`n = 2000`, three types, 2%
//! relation density) and the `micro_graph` blocked pNN build
//! (`n = 1200, d = 64, p = 5`). Exit code 1 if either on/off median
//! ratio exceeds the tolerance.

use mtrl_graph::{pnn_graph, GraphBackend, WeightScheme};
use mtrl_linalg::block::stack_membership;
use mtrl_linalg::random::rand_uniform;
use mtrl_sparse::CsrBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhchme::engine::{run_engine, EngineConfig, GraphRegularizer};
use rhchme::kmeans::labels_to_membership;
use rhchme::MultiTypeData;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: obs_overhead [--tolerance 0.02] [--samples 21]";

/// The `micro_engine` three-type dataset at the tf-idf-like 2% density.
fn engine_workload() -> (
    MultiTypeData,
    mtrl_sparse::Csr,
    mtrl_linalg::Mat,
    EngineConfig,
) {
    const SIZES: [usize; 3] = [1200, 600, 200];
    const CLUSTERS: [usize; 3] = [8, 6, 4];
    let mut rng = StdRng::seed_from_u64(42);
    let mut relations = Vec::new();
    for (k, l) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let (rows, cols) = (SIZES[k], SIZES[l]);
        let mut csr = CsrBuilder::new(rows, cols);
        for _ in 0..rows {
            for j in 0..cols {
                if rng.gen_range(0.0..1.0) < 0.02 {
                    csr.push(j, rng.gen_range(0.1..1.0));
                }
            }
            csr.finish_row();
        }
        relations.push((k, l, csr.build()));
    }
    let data =
        MultiTypeData::new(SIZES.to_vec(), CLUSTERS.to_vec(), relations).expect("valid layout");
    let r = data.assemble_r_csr();
    let mut rng = StdRng::seed_from_u64(43);
    let blocks: Vec<mtrl_linalg::Mat> = data
        .cluster_counts()
        .iter()
        .zip(data.sizes())
        .map(|(&ck, &nk)| {
            let labels: Vec<usize> = (0..nk).map(|_| rng.gen_range(0..ck)).collect();
            labels_to_membership(&labels, ck, 0.2)
        })
        .collect();
    let g0 = stack_membership(&blocks);
    let cfg = EngineConfig {
        lambda: 0.0,
        beta: 10.0,
        use_error_matrix: true,
        l1_row_normalize: true,
        max_iter: 2,
        tol: 0.0,
        ..EngineConfig::default()
    };
    (data, r, g0, cfg)
}

/// Measurement of one hot loop: off/on medians plus the gated statistic.
struct Paired {
    off_median_ns: u64,
    on_median_ns: u64,
    /// Median of the per-pair on/off ratios — each pair's two runs are
    /// milliseconds apart, so slow machine drift cancels inside the
    /// pair, and the median discards pairs a descheduling spike hit.
    ratio: f64,
}

fn paired_measure(samples: usize, mut work: impl FnMut()) -> Paired {
    let mut time = |enabled: bool| -> u64 {
        if enabled {
            mtrl_obs::force_enable();
        } else {
            mtrl_obs::force_disable();
        }
        let t = Instant::now();
        work();
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    // Warm both arms before sampling.
    time(false);
    time(true);
    let mut off = Vec::with_capacity(samples);
    let mut on = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for i in 0..samples {
        // Alternate which arm goes first so a periodic disturbance
        // cannot systematically land on one of them.
        let (a, b) = if i % 2 == 0 {
            let a = time(false);
            (a, time(true))
        } else {
            let b = time(true);
            (time(false), b)
        };
        off.push(a);
        on.push(b);
        ratios.push(b as f64 / a.max(1) as f64);
    }
    mtrl_obs::force_disable();
    off.sort_unstable();
    on.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    Paired {
        off_median_ns: off[samples / 2],
        on_median_ns: on[samples / 2],
        ratio: ratios[samples / 2],
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = 0.02f64;
    let mut samples = 21usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => tolerance = v,
                None => {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--samples" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => samples = v,
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (data, r, g0, cfg) = engine_workload();
    let graph_data = rand_uniform(1200, 64, 0.0, 1.0, 11);

    let engine_leg = paired_measure(samples, || {
        black_box(
            run_engine(
                black_box(&r),
                &data,
                &GraphRegularizer::None,
                g0.clone(),
                &cfg,
            )
            .expect("engine fit"),
        );
    });
    // Single-threaded: the gate measures instrumentation cost, and a
    // 2-thread build folds scheduler jitter into the signal at exactly
    // the scale the 2% bar resolves. The build sits above the search's
    // work threshold, so the pool count is the build's thread count.
    mtrl_linalg::par::set_num_threads(1);
    let pnn_leg = paired_measure(samples, || {
        black_box(pnn_graph(
            black_box(&graph_data),
            5,
            WeightScheme::Cosine,
            &GraphBackend::Exact,
        ));
    });
    let legs: Vec<(&str, Paired)> = vec![
        ("engine_step_sparse_d002", engine_leg),
        ("pnn_build_n1200_d64_p5", pnn_leg),
    ];

    let mut failed = false;
    println!(
        "{:<28}  {:>14}  {:>14}  {:>7}  ({} paired samples, tolerance {:.1}%)",
        "hot loop",
        "obs off (med)",
        "obs on (med)",
        "ratio",
        samples,
        tolerance * 100.0
    );
    for (name, p) in &legs {
        let verdict = if p.ratio > 1.0 + tolerance {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{:<28}  {:>12.3}ms  {:>12.3}ms  {:>6.3}x  {verdict}",
            name,
            p.off_median_ns as f64 / 1e6,
            p.on_median_ns as f64 / 1e6,
            p.ratio
        );
    }
    if failed {
        eprintln!(
            "\nobs overhead gate FAILED: instrumented hot loop exceeds \
             {:.1}% over the uninstrumented pair",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nobs overhead gate passed (tolerance {:.1}%)",
        tolerance * 100.0
    );
    ExitCode::SUCCESS
}
