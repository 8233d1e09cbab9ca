//! The traced RHCHME fit: the calls `rhchme::pipeline::run_spec` makes
//! for `Method::Rhchme`, made one by one from here so each layer's time
//! can be read. The order and arguments follow `Rhchme::fit_data`, so
//! the labels must equal the untraced fit's bit for bit.

use crate::bench::{ms, timed, timed_peak, Outcome};
use mtrl_subspace::SpgConfig;
use rhchme::engine::{run_engine, EngineConfig, GraphRegularizer};
use rhchme::intra::{hetero_laplacian, pnn_laplacians_backend_prec, subspace_laplacians};
use rhchme::pipeline::PipelineParams;
use rhchme::rhchme::{init_membership, package_result};
use rhchme::MultiTypeData;
use std::time::Duration;

/// Repetitions of the engine call at `nproc` kernel threads.
const NPROC_REPS: usize = 3;

/// Layer times and counts of one traced fit.
pub struct FitTrace {
    pub doc_labels: Vec<usize>,
    pub total: Duration,
    pub multitype: Duration,
    pub subspace: Duration,
    pub graph: Duration,
    pub kmeans: Duration,
    pub engine: Duration,
    pub subspace_peak: usize,
    pub engine_peak: usize,
    pub engine_iters: usize,
    pub laplacian_nnz: usize,
    /// Kept for the calls measured beside the fit; only the last trace
    /// of a run keeps them.
    inputs: Option<Inputs>,
}

/// The inputs of the traced fit's SPG and engine calls.
struct Inputs {
    features: Vec<mtrl_linalg::Mat>,
    data: MultiTypeData,
    r: mtrl_sparse::Csr,
    regularizer: GraphRegularizer,
    g0: mtrl_linalg::Mat,
    engine_cfg: EngineConfig,
    spg_cfg: SpgConfig,
}

impl FitTrace {
    /// Sum of the attributed layer times.
    pub fn attributed(&self) -> Duration {
        self.multitype + self.subspace + self.graph + self.kmeans + self.engine
    }
}

/// Run the traced fit of `corpus` under `params`.
///
/// # Errors
/// Propagates the layer calls' errors.
pub fn traced_fit(
    corpus: &mtrl_datagen::MultiTypeCorpus,
    params: &PipelineParams,
) -> rhchme::Result<FitTrace> {
    let cfg = mtrl_eval::runner::rhchme_config(params);
    let spg_cfg = SpgConfig {
        gamma: cfg.gamma,
        max_iter: cfg.spg_max_iter,
        seed: cfg.seed,
        ..SpgConfig::default()
    };
    let engine_cfg = EngineConfig {
        lambda: cfg.lambda,
        beta: cfg.beta,
        use_error_matrix: true,
        l1_row_normalize: true,
        max_iter: cfg.max_iter,
        tol: cfg.tol,
        record_labels_for_type: None,
        precision: cfg.precision,
        ..EngineConfig::default()
    };
    let (result, total) = timed(|| -> rhchme::Result<_> {
        let (assembled, t_data) = timed(|| -> rhchme::Result<_> {
            let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
            let features = data.all_features();
            Ok((data, features))
        });
        let (data, features) = assembled?;
        let (l_s, t_sub, sub_peak) =
            timed_peak(|| subspace_laplacians(&features, &spg_cfg, cfg.laplacian_kind));
        let l_s = l_s?;
        let (l, t_graph) = timed(|| -> rhchme::Result<_> {
            let l_e = pnn_laplacians_backend_prec(
                &features,
                cfg.p,
                cfg.weight_scheme,
                cfg.laplacian_kind,
                &cfg.graph_backend,
                cfg.precision,
            )?;
            hetero_laplacian(&l_s, &l_e, cfg.alpha)
        });
        let l = l?;
        let laplacian_nnz = l.nnz();
        let (g0, t_kmeans) = timed(|| init_membership(&data, &features, cfg.seed));
        let (r, t_r) = timed(|| data.assemble_r_csr());
        let regularizer = GraphRegularizer::Fixed(l);
        let g0_kept = g0.clone();
        let (out, t_engine, engine_peak) =
            timed_peak(|| run_engine(&r, &data, &regularizer, g0, &engine_cfg));
        let out = out?;
        let engine_iters = out.iterations;
        let result = package_result(&data, out);
        Ok(FitTrace {
            doc_labels: result.doc_labels,
            total: Duration::ZERO,
            multitype: t_data + t_r,
            subspace: t_sub,
            graph: t_graph,
            kmeans: t_kmeans,
            engine: t_engine,
            subspace_peak: sub_peak,
            engine_peak,
            engine_iters,
            laplacian_nnz,
            inputs: Some(Inputs {
                features,
                data,
                r,
                regularizer,
                g0: g0_kept,
                engine_cfg: engine_cfg.clone(),
                spg_cfg: spg_cfg.clone(),
            }),
        })
    });
    let mut trace = result?;
    trace.total = total;
    Ok(trace)
}

/// Per-layer numbers over the traced fits of a run, each paired with
/// the untraced fit time of the same input.
#[derive(Default)]
pub struct FitLayers {
    traces: Vec<FitTrace>,
    untraced: Vec<Duration>,
}

impl FitLayers {
    /// Add one traced fit and the untraced fit time of its pair.
    pub fn push(&mut self, trace: FitTrace, untraced: Duration) {
        if let Some(previous) = self.traces.last_mut() {
            previous.inputs = None;
        }
        self.traces.push(trace);
        self.untraced.push(untraced);
    }

    /// Report the fit layers' metrics: medians over the traced fits,
    /// plus the calls measured beside the last one (per-type SPG
    /// iterations, the engine at `nproc` kernel threads).
    pub fn report(&self, out: &mut Outcome) {
        let Some(last) = self.traces.last() else {
            return;
        };
        let n = self.traces.len();
        let med = |f: &dyn Fn(&FitTrace) -> f64| -> f64 {
            crate::bench::median(&self.traces.iter().map(f).collect::<Vec<_>>())
        };
        out.metric("multitype.ms", med(&|t| ms(t.multitype)), n);
        out.metric("subspace.ms", med(&|t| ms(t.subspace)), n);
        out.metric(
            "subspace.share",
            med(&|t| t.subspace.as_secs_f64() / t.total.as_secs_f64()),
            n,
        );
        out.metric("subspace.peak_dense_elems", last.subspace_peak as f64, 1);
        out.metric("graph.ms", med(&|t| ms(t.graph)), n);
        out.metric("graph.laplacian_nnz", last.laplacian_nnz as f64, 1);
        out.metric("kmeans.ms", med(&|t| ms(t.kmeans)), n);
        out.metric("engine.ms", med(&|t| ms(t.engine)), n);
        out.metric("engine.iters", last.engine_iters as f64, 1);
        out.metric(
            "engine.ms_per_iter",
            med(&|t| ms(t.engine) / t.engine_iters.max(1) as f64),
            n,
        );
        out.metric("engine.peak_dense_elems", last.engine_peak as f64, 1);
        out.metric(
            "unattributed.share",
            med(&|t| 1.0 - t.attributed().as_secs_f64() / t.total.as_secs_f64()),
            n,
        );
        let overhead: Vec<f64> = self
            .traces
            .iter()
            .zip(&self.untraced)
            .map(|(t, u)| t.total.as_secs_f64() / u.as_secs_f64() - 1.0)
            .collect();
        out.metric("trace.overhead", crate::bench::median(&overhead), n);

        let Some(inputs) = last.inputs.as_ref() else {
            return;
        };
        // Beside: SPG per type, for its iteration counts.
        let mut spg_iters = 0;
        for (k, f) in inputs.features.iter().enumerate() {
            let cfg = SpgConfig {
                seed: inputs.spg_cfg.seed.wrapping_add(k as u64),
                ..inputs.spg_cfg.clone()
            };
            if let Some(res) = out.op("spg_affinity", mtrl_subspace::spg_affinity(f, &cfg)) {
                spg_iters += res.iterations;
            }
        }
        out.metric("subspace.spg_iters", spg_iters as f64, 1);

        // Beside: the same engine call on every kernel thread, median of
        // a few repetitions.
        let threads = mtrl_linalg::par::num_threads();
        mtrl_linalg::par::set_num_threads(crate::bench::nproc());
        let mut nproc_ms = Vec::with_capacity(NPROC_REPS);
        for _ in 0..NPROC_REPS {
            let (res, t) = timed(|| {
                run_engine(
                    &inputs.r,
                    &inputs.data,
                    &inputs.regularizer,
                    inputs.g0.clone(),
                    &inputs.engine_cfg,
                )
            });
            if let Some(res) = out.op("engine at nproc threads", res) {
                let labels = package_result(&inputs.data, res).doc_labels;
                out.check(labels == last.doc_labels, || {
                    "engine labels differ between 1 and nproc kernel threads".into()
                });
                nproc_ms.push(ms(t));
            }
        }
        mtrl_linalg::par::set_num_threads(threads);
        out.metric(
            "engine.ms_nproc",
            crate::bench::median(&nproc_ms),
            nproc_ms.len(),
        );
    }
}
