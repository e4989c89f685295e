//! Single vs batched cost of the streaming hot path's two kernels at
//! job-transition burst sizes 1 / 8 / 64:
//!
//! * probe matching — allocating `match_pattern` vs the scratch-based
//!   `match_pattern_into` over the contiguous centroid matrix with
//!   early-abandon;
//! * segment scoring — a `score_series` loop vs one
//!   `score_series_batch` stacking the burst into batched forwards.
//!
//! Criterion covers the statistical comparison; a manual timing pass
//! writes `BENCH_match.json` for CI and the README perf table.

use criterion::{criterion_group, criterion_main, Criterion};
use nodesentry_core::coarse::ClusterModel;
use nodesentry_core::sharing::{SharedModel, SharingConfig};
use ns_bench::{median_ns, write_bench_json};
use ns_linalg::matrix::Matrix;
use ns_nn::{BlockKind, ParamStore, ReconstructionTransformer, SessionPool, TransformerConfig};
use serde_json::json;

const BURSTS: [usize; 3] = [1, 8, 64];

/// A hand-built cluster library at deployment scale: 12 centroids over
/// 134 probe features (the standard catalog's width).
fn library(k: usize, dim: usize) -> ClusterModel {
    let centroids = Matrix::from_fn(k, dim, |r, c| ((r * 13 + c * 7) as f64 * 0.31).sin() * 2.0);
    ClusterModel {
        feat_mean: vec![0.0; dim],
        feat_std: vec![1.0; dim],
        centroids: (0..k).map(|r| centroids.row(r).to_vec()).collect(),
        labels: (0..k).collect(),
        member_distances: vec![0.0; k],
        silhouette: 0.5,
        probe_feat_mean: vec![0.25; dim],
        probe_feat_std: vec![1.5; dim],
        probe_centroids: centroids,
        match_radius: 10.0,
    }
}

fn probes(n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|p| {
            (0..dim)
                .map(|c| ((p * 11 + c * 5) as f64 * 0.23).cos() * 2.0)
                .collect()
        })
        .collect()
}

/// A shared model at the paper's deployment shape (window 20, d_model
/// 36, 3 heads / 3 layers, MoE 3 experts top-1), built directly so the
/// bench doesn't pay a training run.
fn shared_model() -> SharedModel {
    let cfg = SharingConfig::default();
    let input_dim = 24;
    let mut params = ParamStore::new(11);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim,
            d_model: cfg.d_model,
            n_heads: cfg.n_heads,
            n_layers: cfg.n_layers,
            hidden: cfg.hidden,
            block: BlockKind::Moe {
                n_experts: cfg.n_experts,
                top_k: cfg.top_k,
            },
            aux_weight: 0.01,
        },
    );
    SharedModel {
        params,
        model,
        weights: vec![1.0; input_dim],
        cfg,
        loss_history: Vec::new(),
        score_mean: 0.0,
        score_std: 1.0,
        infer: SessionPool::new(),
        infer32: ns_nn::SessionPoolF32::new(),
    }
}

fn segments(n: usize, t: usize, m: usize) -> Vec<Matrix> {
    (0..n)
        .map(|s| {
            Matrix::from_fn(t, m, |r, c| {
                ((r as f64 * 0.37 + c as f64 * 1.3 + s as f64 * 0.71) * 0.9).sin()
            })
        })
        .collect()
}

fn bench_match(c: &mut Criterion) {
    let model = library(12, 134);
    let shared = shared_model();

    let mut group = c.benchmark_group("match");
    for burst in BURSTS {
        let ps = probes(burst, 134);
        group.bench_function(format!("match_pattern_x{burst}"), |b| {
            b.iter(|| {
                for p in &ps {
                    std::hint::black_box(model.match_pattern(p));
                }
            })
        });
        group.bench_function(format!("match_pattern_into_x{burst}"), |b| {
            let mut scratch = Vec::new();
            model.match_pattern_into(&ps[0], &mut scratch); // warm
            b.iter(|| {
                for p in &ps {
                    std::hint::black_box(model.match_pattern_into(p, &mut scratch));
                }
            })
        });
    }
    for burst in BURSTS {
        let segs = segments(burst, 60, 24);
        let refs: Vec<&Matrix> = segs.iter().collect();
        group.bench_function(format!("score_series_loop_x{burst}"), |b| {
            shared.score_series(&segs[0]); // warm the session pool
            b.iter(|| {
                for s in &segs {
                    std::hint::black_box(shared.score_series(s));
                }
            })
        });
        group.bench_function(format!("score_series_batch_x{burst}"), |b| {
            shared.score_series_batch(&refs); // warm batch-shaped scratch
            b.iter(|| {
                std::hint::black_box(shared.score_series_batch(&refs));
            })
        });
    }
    group.finish();
}

fn write_report() {
    let model = library(12, 134);
    let shared = shared_model();

    let mut match_ns: Vec<(String, serde_json::Value)> = Vec::new();
    let mut score_ns: Vec<(String, serde_json::Value)> = Vec::new();
    for burst in BURSTS {
        let ps = probes(burst, 134);
        // Sample length scales inversely with burst so every sample is
        // ~100 ms — short samples are dominated by host jitter.
        let match_iters = (100_000 / burst).max(400);
        let alloc = median_ns(match_iters, || {
            for p in &ps {
                std::hint::black_box(model.match_pattern(p));
            }
        });
        let mut scratch = Vec::new();
        model.match_pattern_into(&ps[0], &mut scratch);
        let into = median_ns(match_iters, || {
            for p in &ps {
                std::hint::black_box(model.match_pattern_into(p, &mut scratch));
            }
        });
        match_ns.push((
            format!("burst_{burst}"),
            json!({
                "allocating": alloc,
                "scratch": into,
                "speedup": alloc / into,
            }),
        ));

        let segs = segments(burst, 60, 24);
        let refs: Vec<&Matrix> = segs.iter().collect();
        // Keep each timing sample a few hundred ms long regardless of
        // burst size — short samples are dominated by host jitter.
        let iters = (1600 / burst).clamp(20, 400);
        shared.score_series(&segs[0]);
        let single = median_ns(iters, || {
            for s in &segs {
                std::hint::black_box(shared.score_series(s));
            }
        });
        shared.score_series_batch(&refs);
        let batched = median_ns(iters, || {
            std::hint::black_box(shared.score_series_batch(&refs));
        });
        score_ns.push((
            format!("burst_{burst}"),
            json!({
                "loop": single,
                "batched": batched,
                "speedup": single / batched,
            }),
        ));
        println!(
            "burst {burst:>2}: match {:.2}µs -> {:.2}µs | score {:.1}µs -> {:.1}µs ({:.2}x)",
            alloc / 1e3,
            into / 1e3,
            single / 1e3,
            batched / 1e3,
            single / batched,
        );
    }

    write_bench_json(
        "match",
        &json!({
            "config": json!({
                "library": json!({"k": 12, "probe_features": 134}),
                "segment": json!({"rows": 60, "input_dim": 24}),
                "model": "moe_3x_top1_d36",
                "bursts": BURSTS,
            }),
            "match_ns": serde_json::Value::Object(match_ns),
            "score_ns": serde_json::Value::Object(score_ns),
        }),
    );
}

fn benches_then_report(c: &mut Criterion) {
    bench_match(c);
    write_report();
}

criterion_group!(benches, benches_then_report);
criterion_main!(benches);
