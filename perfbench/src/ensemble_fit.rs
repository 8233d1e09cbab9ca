//! `ensemble_fit`: the default consensus ensemble (8 members over the
//! RHCHME / SNMTF / RMC / SRC pool) from corpus to labels.

use crate::bench::{median, ms, timed, Opts, Outcome};
use crate::fits::run_fits;
use mtrl_ensemble::generator::{generate_members, SharedRegularizers};
use mtrl_ensemble::{merge_members, CoAssocBuilder};
use rhchme::pipeline::{Artifacts, EnsembleSpec, MethodSpec, PipelineParams};
use std::time::Duration;

/// Stage times of one traced ensemble fit, in call order.
struct Stages {
    doc_labels: Vec<usize>,
    total: Duration,
    artifacts: Duration,
    regularizers: Duration,
    members: Duration,
    merge: Duration,
    fallback_types: usize,
    coassoc: Duration,
    coassoc_nnz: usize,
}

/// The calls `mtrl_ensemble::fit_corpus` makes, one by one; then,
/// beside them, the co-association build on the same member labels.
fn traced(
    corpus: &mtrl_datagen::MultiTypeCorpus,
    spec: &EnsembleSpec,
    params: &PipelineParams,
) -> rhchme::Result<Stages> {
    let (staged, total) = timed(|| -> rhchme::Result<_> {
        let (arts, t_arts) = timed(|| Artifacts::new(corpus, params));
        let arts = arts?;
        let (regs, t_regs) = timed(|| SharedRegularizers::new(&arts, params));
        let regs = regs?;
        let (members, t_members) = timed(|| generate_members(&arts, &regs, spec, params));
        let members = members?;
        let (merged, t_merge) = timed(|| merge_members(&arts.data, &arts.r, &members, spec));
        Ok((arts, members, merged?, [t_arts, t_regs, t_members, t_merge]))
    });
    let (arts, members, merged, [artifacts, regularizers, members_t, merge]) = staged?;
    let (coassoc_nnz, coassoc) = timed(|| {
        (0..arts.data.num_types())
            .map(|t| {
                let mut builder = CoAssocBuilder::new(arts.data.sizes()[t]);
                for m in &members {
                    builder.add_partition(&m.labels_per_type[t]);
                }
                builder.build(spec.coassoc_p).nnz()
            })
            .sum()
    });
    Ok(Stages {
        doc_labels: merged.doc_labels,
        total,
        artifacts,
        regularizers,
        members: members_t,
        merge,
        fallback_types: merged.fallback_types,
        coassoc,
        coassoc_nnz,
    })
}

fn report_stages(out: &mut Outcome, stages: &[Stages], untraced_ms: &[f64]) {
    let Some(last) = stages.last() else {
        return;
    };
    let n = stages.len();
    let med = |f: &dyn Fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    out.metric("ensemble.artifacts.ms", med(&|s| ms(s.artifacts)), n);
    out.metric("ensemble.regularizers.ms", med(&|s| ms(s.regularizers)), n);
    out.metric("ensemble.members.ms", med(&|s| ms(s.members)), n);
    out.metric("ensemble.merge.ms", med(&|s| ms(s.merge)), n);
    out.metric("ensemble.coassoc.ms", med(&|s| ms(s.coassoc)), n);
    out.metric("ensemble.coassoc_nnz", last.coassoc_nnz as f64, 1);
    out.metric("ensemble.fallback_types", last.fallback_types as f64, 1);
    out.metric(
        "unattributed.share",
        med(&|s| {
            let attributed = s.artifacts + s.regularizers + s.members + s.merge;
            1.0 - attributed.as_secs_f64() / s.total.as_secs_f64()
        }),
        n,
    );
    let overhead: Vec<f64> = stages
        .iter()
        .zip(untraced_ms)
        .map(|(s, u)| ms(s.total) / u - 1.0)
        .collect();
    out.metric("trace.overhead", median(&overhead), n);
}

/// Documents per class (3 classes) and corpora per run.
const DOCS_PER_CLASS: usize = 80;
const CORPORA: usize = 20;

pub fn run(opts: &Opts, out: &mut Outcome) {
    let ensemble = EnsembleSpec::default();
    let spec = MethodSpec::Ensemble(ensemble.clone());
    let mut stages = Vec::new();
    let mut untraced_ms = Vec::new();
    run_fits(
        opts,
        out,
        opts.scale.pick(DOCS_PER_CLASS, 12),
        opts.scale.pick(CORPORA, 2),
        &spec,
        |out, case, fit, untraced| {
            if !opts.trace {
                return;
            }
            if let Some(s) = out.op("traced fit", traced(&case.corpus, &ensemble, &case.params)) {
                out.check(s.doc_labels == fit.doc_labels, || {
                    "traced ensemble labels differ from the untraced fit".into()
                });
                stages.push(s);
                untraced_ms.push(ms(untraced));
            }
        },
    );
    if opts.trace {
        report_stages(out, &stages, &untraced_ms);
    }
}
