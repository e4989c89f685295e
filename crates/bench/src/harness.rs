//! Experiment harness: dataset adapters, the shared evaluation protocol,
//! and runners for NodeSentry, its ablation variants, and the baselines.
//!
//! Every experiment binary prints the paper's rows to stdout and writes
//! a JSON record to `target/experiments/<name>.json` for EXPERIMENTS.md.

use nodesentry_core::{NodeSentry, NodeSentryConfig, NodeSource, Variant};
use ns_baselines::Detector;
use ns_eval::metrics::{
    adjusted_confusion, aggregate, roc_auc_adjusted, transition_mask, AggregateScores, NodeScores,
};
use ns_eval::threshold::{ksigma_detect, smooth_scores};

/// Smoothing window (points) applied to every method's score series
/// before thresholding and AUC — single-point spikes are noise at 30 s
/// sampling; real events last ≥ 15 steps.
pub const SMOOTH_WINDOW: usize = 5;
use ns_linalg::matrix::Matrix;
use ns_telemetry::{Dataset, DatasetProfile};
use serde::Serialize;

/// Boundary-exclusion radius in steps: the paper excludes 1 minute on
/// each side of pattern transitions; at 30 s sampling that is 2 steps.
pub const BOUNDARY_RADIUS: usize = 2;

/// Adapter exposing a generated [`Dataset`] through [`NodeSource`]
/// (raw matrices expand lazily per node).
pub struct DatasetSource<'a>(pub &'a Dataset);

impl NodeSource for DatasetSource<'_> {
    fn n_nodes(&self) -> usize {
        self.0.n_nodes()
    }

    fn raw(&self, node: usize) -> Matrix {
        self.0.raw_node(node)
    }

    fn transitions(&self, node: usize) -> Vec<usize> {
        transitions_of(self.0, node)
    }
}

/// Job-transition steps of a node (segment starts, excluding 0).
pub fn transitions_of(ds: &Dataset, node: usize) -> Vec<usize> {
    ds.schedule
        .node_timeline(node)
        .iter()
        .map(|seg| seg.start)
        .filter(|&s| s > 0)
        .collect()
}

/// One method's evaluated outcome (Table 4 row).
#[derive(Clone, Debug, Serialize)]
pub struct MethodResult {
    pub method: String,
    pub dataset: String,
    pub precision: f64,
    pub recall: f64,
    pub auc: f64,
    pub f1: f64,
    /// Offline training wall-clock (seconds).
    pub offline_s: f64,
    /// Online detection wall-clock per node (seconds).
    pub online_s_per_node: f64,
}

/// Evaluate per-node score series against the dataset's ground truth
/// with the paper's protocol: k-sigma thresholding, point adjustment,
/// transition-boundary exclusion, per-node averaging.
pub fn evaluate_scores(
    ds: &Dataset,
    per_node_scores: &[Vec<f64>],
    threshold: &ns_eval::threshold::KSigmaConfig,
) -> AggregateScores {
    let split = ds.split;
    let nodes: Vec<NodeScores> = per_node_scores
        .iter()
        .enumerate()
        .filter(|(n, _)| {
            // Nodes that saw no anomaly contribute nothing to recall and
            // would read as F1 = 0; average over affected nodes only
            // (their false positives still show up in Table 4's
            // deployment-precision row via the affected nodes' windows).
            ds.labels(*n)[ds.split..].iter().any(|&b| b)
        })
        .map(|(n, raw_scores)| {
            let scores = smooth_scores(raw_scores, SMOOTH_WINDOW);
            let scores = &scores;
            let truth_full = ds.labels(n);
            let truth = &truth_full[split..];
            let pred = ksigma_detect(scores, threshold);
            let transitions: Vec<usize> = transitions_of(ds, n)
                .into_iter()
                .filter(|&t| t >= split)
                .map(|t| t - split)
                .collect();
            let mask = transition_mask(scores.len(), &transitions, BOUNDARY_RADIUS);
            let c = adjusted_confusion(&pred, truth, Some(&mask));
            let auc = roc_auc_adjusted(scores, truth, Some(&mask));
            NodeScores {
                precision: c.precision(),
                recall: c.recall(),
                auc,
            }
        })
        .collect();
    aggregate(&nodes)
}

/// Train + evaluate NodeSentry (or a variant) on a dataset.
pub fn run_nodesentry(ds: &Dataset, cfg: NodeSentryConfig) -> (MethodResult, NodeSentry) {
    let threshold = cfg.threshold;
    let variant = cfg.variant;
    // Timed via ns-obs spans: the durations come back directly from the
    // guard, and with tracing enabled the core pipeline's own `fit/...`
    // stage spans nest under `offline` in `ns_obs::trace::report()`.
    let offline_span = ns_obs::trace::span("offline");
    let groups = ds.catalog.group_ids();
    let model = NodeSentry::fit_from_source(cfg, &DatasetSource(ds), &groups, ds.split);
    let offline_s = offline_span.finish_seconds();

    let online_span = ns_obs::trace::span("online");
    // Nodes score independently; parallelize with order-preserving
    // collection so results are identical to the serial loop.
    let per_node: Vec<Vec<f64>> = {
        use rayon::prelude::*;
        (0..ds.n_nodes())
            .into_par_iter()
            .map(|n| {
                let raw = ds.raw_node(n);
                let (scores, _) = model.score_node(&raw, &transitions_of(ds, n), ds.split);
                scores
            })
            .collect()
    };
    let online_s_per_node = online_span.finish_seconds() / ds.n_nodes().max(1) as f64;

    let agg = evaluate_scores(ds, &per_node, &threshold);
    (
        MethodResult {
            method: variant.name().to_string(),
            dataset: ds.profile.name.clone(),
            precision: agg.precision,
            recall: agg.recall,
            auc: agg.auc,
            f1: agg.f1,
            offline_s,
            online_s_per_node,
        },
        model,
    )
}

/// Preprocess every node once with a NodeSentry-style preprocessor (the
/// baselines consume the same reduced representation).
pub fn preprocessed_nodes(ds: &Dataset) -> Vec<Matrix> {
    ns_obs::span!("preprocess_nodes");
    let groups = ds.catalog.group_ids();
    let sample_n = 4.min(ds.n_nodes());
    let sample: Vec<Matrix> = (0..sample_n)
        .map(|n| ds.raw_node(n).slice_rows(0, ds.split))
        .collect();
    let stacked = Matrix::vstack(&sample.iter().collect::<Vec<_>>());
    let pp = nodesentry_core::Preprocessor::fit(&stacked, &groups, 0.99, 0.05);
    {
        use rayon::prelude::*;
        (0..ds.n_nodes())
            .into_par_iter()
            .map(|n| pp.transform(&ds.raw_node(n)))
            .collect()
    }
}

/// Train + evaluate one baseline detector.
pub fn run_baseline(
    ds: &Dataset,
    det: &mut dyn Detector,
    threshold: &ns_eval::threshold::KSigmaConfig,
) -> MethodResult {
    let offline_span = ns_obs::trace::span("baseline_offline");
    let nodes = preprocessed_nodes(ds);
    det.fit(&nodes, ds.split);
    let offline_s = offline_span.finish_seconds();

    let online_span = ns_obs::trace::span("baseline_online");
    let per_node: Vec<Vec<f64>> = nodes
        .iter()
        .enumerate()
        .map(|(n, data)| det.score_node(n, data, ds.split))
        .collect();
    let online_s_per_node = online_span.finish_seconds() / ds.n_nodes().max(1) as f64;

    let agg = evaluate_scores(ds, &per_node, threshold);
    MethodResult {
        method: det.name().to_string(),
        dataset: ds.profile.name.clone(),
        precision: agg.precision,
        recall: agg.recall,
        auc: agg.auc,
        f1: agg.f1,
        offline_s,
        online_s_per_node,
    }
}

/// Default NodeSentry configuration used across experiments (artifact
/// hyperparameters at laptop scale).
pub fn default_ns_config() -> NodeSentryConfig {
    NodeSentryConfig::default()
}

/// A reduced-size dataset profile for the hyperparameter sweeps of
/// Fig. 6 (each sweep retrains NodeSentry several times).
pub fn sweep_profile_d1() -> DatasetProfile {
    let mut p = DatasetProfile::d1_prime();
    p.name = "D1'-sweep".into();
    p.schedule.n_nodes = 10;
    p.schedule.horizon = 2880;
    p
}

/// Reduced D2 profile for sweeps.
pub fn sweep_profile_d2() -> DatasetProfile {
    let mut p = DatasetProfile::d2_prime();
    p.name = "D2'-sweep".into();
    p.schedule.n_nodes = 6;
    p.schedule.horizon = 2880;
    p
}

/// Variant runner over a dataset with the default config.
pub fn run_variant(ds: &Dataset, variant: Variant) -> MethodResult {
    let cfg = default_ns_config().with_variant(variant);
    run_nodesentry(ds, cfg).0
}

/// Write an experiment record under `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warn: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warn: cannot write {path:?}: {e}");
            } else {
                eprintln!("[json] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warn: serialisation failed: {e}"),
    }
}

/// Write a machine-readable benchmark record as `BENCH_<name>.json` in
/// the current working directory. Unlike [`write_json`] (which files
/// experiment records under `target/experiments/` for EXPERIMENTS.md),
/// these land where CI and regression tooling can pick them up by the
/// `BENCH_` prefix alone.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T) {
    let path = std::path::PathBuf::from(format!("BENCH_{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warn: cannot write {path:?}: {e}");
            } else {
                eprintln!("[bench] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warn: serialisation failed: {e}"),
    }
}

/// Median nanoseconds per call of `f` over `iters` calls, from five
/// samples (the median rides out host-jitter outliers either way). The
/// manual timing pass of the `benches/` micro-benchmarks.
pub fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[2]
}

/// Print a Table 4-style row.
pub fn print_method_row(r: &MethodResult) {
    println!(
        "{:<12} {:<10} P={:.3} R={:.3} AUC={:.3} F1={:.3}  offline={}  online/node={}",
        r.method,
        r.dataset,
        r.precision,
        r.recall,
        r.auc,
        r.f1,
        ns_eval::timing::format_duration(r.offline_s),
        ns_eval::timing::format_duration(r.online_s_per_node),
    );
}
