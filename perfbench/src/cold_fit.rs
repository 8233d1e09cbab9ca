//! `cold_fit`: the paper's whole pipeline (SPG subspace affinity →
//! heterogeneous Laplacian ensemble → Algorithm 2) from corpus to
//! labels, through `mtrl_ensemble::run_spec` as every caller reaches it.

use crate::bench::{Opts, Outcome};
use crate::fit_trace::{traced_fit, FitLayers};
use crate::fits::run_fits;
use rhchme::pipeline::{Method, MethodSpec};

/// Documents per class (3 classes) and corpora per run.
const DOCS_PER_CLASS: usize = 110;
const CORPORA: usize = 36;

pub fn run(opts: &Opts, out: &mut Outcome) {
    let spec = MethodSpec::Base(Method::Rhchme);
    let mut layers = FitLayers::default();
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
            let traced = traced_fit(&case.corpus, &case.params);
            if let Some(trace) = out.op("traced fit", traced) {
                out.check(trace.doc_labels == fit.doc_labels, || {
                    "traced fit labels differ from the untraced fit".into()
                });
                layers.push(trace, untraced);
            }
        },
    );
    if opts.trace {
        layers.report(out);
    }
}
