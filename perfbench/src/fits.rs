//! The loop both fit workloads share: several corpora from the seed,
//! fitted in whole rounds until the time is up.
//!
//! One corpus would make `fscore` a property of that corpus: across
//! seeds a single 330-doc corpus scores anywhere from 0.68 to 1.0. The
//! mean over several corpora is what repeats from seed to seed, and the
//! fit times pool over all of them.

use crate::bench::{
    labels_digest, large3, median, more, ms, same_as_reference, timed, Opts, Outcome,
};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_eval::runner::quick_params;
use rhchme::pipeline::{MethodOutput, MethodSpec, PipelineParams};
use std::time::Duration;

/// One corpus of a fit workload, with the parameters it is fitted under.
pub struct Case {
    pub corpus: MultiTypeCorpus,
    pub params: PipelineParams,
    reference: Option<Vec<usize>>,
}

/// The seed of the `i`-th input drawn from a workload seed.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// Generate and assemble `corpora` Large3 corpora of `docs_per_class`
/// documents per class (the fit workloads' set-up) and report the
/// median set-up time per corpus as `setup_s`.
fn set_up(out: &mut Outcome, opts: &Opts, docs_per_class: usize, corpora: usize) -> Vec<Case> {
    let mut cases = Vec::with_capacity(corpora);
    let mut times = Vec::with_capacity(corpora);
    for i in 0..corpora {
        let seed = sub_seed(opts.seed, i);
        let params = quick_params(seed);
        let (made, t) = timed(|| {
            let corpus = mtrl_datagen::corpus::generate(&large3(docs_per_class, seed));
            rhchme::MultiTypeData::from_corpus(&corpus, params.feature_cluster_divisor)
                .map(|_| corpus)
        });
        times.push(t.as_secs_f64());
        if let Some(corpus) = out.op("corpus set-up", made) {
            cases.push(Case {
                corpus,
                params,
                reference: None,
            });
        }
    }
    out.metric("setup_s", median(&times), times.len());
    cases
}

/// Fit every corpus under `spec`, in whole rounds, until `opts.seconds`
/// have passed: at least two rounds untraced, so every fit is repeated,
/// or one round traced, where the traced fit is the repetition. After each
/// untraced fit `on_fit` gets the case, the output and its wall time
/// (the traced pass times its own calls there). Reports the end-to-end
/// metrics when untraced.
pub fn run_fits(
    opts: &Opts,
    out: &mut Outcome,
    docs_per_class: usize,
    corpora: usize,
    spec: &MethodSpec,
    mut on_fit: impl FnMut(&mut Outcome, &Case, &MethodOutput, Duration),
) {
    mtrl_linalg::par::set_num_threads(1);
    let mut cases = set_up(out, opts, docs_per_class, corpora);
    if cases.is_empty() {
        return;
    }
    let min_rounds = if opts.trace { 1 } else { 2 };
    let deadline = opts.deadline();
    let mut fit_ms = Vec::new();
    let mut fscores = vec![None; cases.len()];
    let mut rounds = 0;
    while more(rounds, min_rounds, deadline) {
        rounds += 1;
        for (i, case) in cases.iter_mut().enumerate() {
            let (fit, t) = timed(|| mtrl_ensemble::run_spec(&case.corpus, spec, &case.params));
            let Some(fit) = out.op("fit", fit) else {
                continue;
            };
            fit_ms.push(ms(t));
            out.check(
                same_as_reference(&mut case.reference, &fit.doc_labels),
                || format!("fit labels of corpus {i} differ between repetitions"),
            );
            fscores[i]
                .get_or_insert_with(|| mtrl_metrics::fscore(&case.corpus.labels, &fit.doc_labels));
            on_fit(out, case, &fit, t);
        }
    }
    out.meta("rounds", rounds);
    out.meta(
        "labels_digest",
        labels_digest(cases.iter().filter_map(|c| c.reference.as_deref())),
    );
    if opts.trace {
        return;
    }
    let n = fit_ms.len();
    let scored: Vec<f64> = fscores.into_iter().flatten().collect();
    out.metric("latency_p50_ms", median(&fit_ms), n);
    out.metric(
        "fscore",
        scored.iter().sum::<f64>() / scored.len().max(1) as f64,
        scored.len(),
    );
}
