//! The traced run: spans around every benchmark-side call into the
//! system, and the single-threaded layer replay, turned into the
//! per-layer metrics. It is separate from the timed run, whose figures
//! are taken with every tracer off.

use crate::oracle::{quality, Oracle};
use crate::replay::{Counts, Replay, LAYERS};
use crate::report::{Metrics, Outcome};
use crate::run::{self, Pass, Result};
use crate::spans::Tracer;
use crate::stats::{tail_percentile, Samples, MIN_BEYOND, P99_SAMPLES};
use crate::workload::{derive_seed, Input, Kind, Workload};
use nodesentry_core::NodeSentry;
use ns_stream::snapshot::EngineSnapshot;
use ns_stream::Engine;
use std::sync::Arc;
use std::time::Instant;

/// Replay passes stop adding samples after this long.
const REPLAY_BUDGET_S: f64 = 90.0;

pub fn run(w: &Workload, input: &Input, seed: u64) -> Result<Outcome> {
    let run_id = derive_seed(seed, ns_wire::fnv1a64(w.name.as_bytes()));
    let mut m = Metrics::new();
    let pool0 = rayon::pool_stats();

    // Set-up, with the fit's own stage spans read from ns-obs.
    let mut tr = Tracer::on(run_id);
    ns_obs::trace::reset();
    ns_obs::trace::set_enabled(true);
    let (model, _) = run::set_up(w, input, &mut tr);
    ns_obs::trace::set_enabled(false);
    let fit_s = |path: &str| ns_obs::trace::stats(path).map_or(0.0, |s| s.total_seconds());
    m.add(
        "fit.preprocess_s",
        "s",
        fit_s("fit/preprocess") + fit_s("fit/segment"),
    );
    m.add("fit.coarse_s", "s", fit_s("fit/coarse"));
    m.add("fit.train_s", "s", fit_s("fit/fine"));
    m.add("fit.clusters", "count", model.n_clusters() as f64);
    let oracle = Oracle::compute(&model, input);

    // One untraced and enough traced engine passes for a p99 of the
    // calls the client makes.
    let plain = checked(
        w,
        input,
        &oracle,
        run::pass(w, input, &model, &mut Tracer::off())?,
    )?;
    let pool1 = rayon::pool_stats();
    let per_pass = match w.kind {
        Kind::Wire => input.cycles.len() / w.shape.ping_every,
        _ => input.cycles.len(),
    };
    let need = P99_SAMPLES.div_ceil(per_pass.max(1));
    let mut passes = Vec::new();
    crate::sys::release_free_heap();
    for _ in 0..need {
        passes.push(checked(
            w,
            input,
            &oracle,
            run::pass(w, input, &model, &mut tr)?,
        )?);
    }
    engine_metrics(w, &tr, &plain, &passes, &mut m)?;
    m.add(
        "pool.jobs",
        "count",
        (pool1.jobs_submitted - pool0.jobs_submitted) as f64,
    );
    m.add(
        "pool.tasks",
        "count",
        (pool1.tasks_executed - pool0.tasks_executed) as f64,
    );
    m.add("pool.steals", "count", (pool1.steals - pool0.steals) as f64);
    m.add("pool.parks", "count", (pool1.parks - pool0.parks) as f64);
    snapshot_metrics(w, input, &model, &passes, &mut tr, &mut m)?;

    // Layer replay, repeated until every per-call percentile has its
    // samples (or the budget is spent).
    let mut rtr = Tracer::on(run_id);
    let mut counts: Vec<Counts> = Vec::new();
    let t0 = Instant::now();
    let flags = loop {
        let r = Replay::pass(w, input, &model, &mut rtr);
        let check = oracle.check(r.verdicts);
        if let Some(first) = check.first_failure {
            return Err(format!(
                "layer replay: {} of {} verdicts differ from the oracle; first: {first}",
                check.failed, check.attempted
            ));
        }
        counts.push(r.counts);
        let short = ["features", "score"]
            .iter()
            .any(|n| rtr.durations(n).len() < P99_SAMPLES);
        if !short || t0.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break check.flags;
        }
    };
    replay_metrics(&rtr, &counts, &model, &mut m)?;
    let (precision, recall) = quality(input, &flags);
    m.add("quality.precision", "ratio", precision);
    m.add("quality.recall", "ratio", recall);

    let attempted = oracle.expected() * (1 + passes.len() + counts.len()) as u64;
    for (label, t) in [("run", &tr), ("replay", &rtr)] {
        print_spans(label, t);
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}

fn checked(w: &Workload, input: &Input, oracle: &Oracle, p: Pass) -> Result<Pass> {
    let check = run::verify(w, input, oracle, &p);
    match check.first_failure {
        Some(first) => Err(format!(
            "{} of {} verdicts failed the oracle; first: {first}",
            check.failed, check.attempted
        )),
        None => Ok(p),
    }
}

fn pct(s: &mut Samples, q: f64, what: &str) -> Result<f64> {
    let n = s.len();
    s.percentile(q).ok_or_else(|| {
        format!(
            "{what}: {n} samples leave fewer than {MIN_BEYOND} beyond p{}",
            q * 100.0
        )
    })
}

fn engine_metrics(
    w: &Workload,
    tr: &Tracer,
    plain: &Pass,
    passes: &[Pass],
    m: &mut Metrics,
) -> Result<()> {
    // Over the wire the client's calls are `send_cycle` and `ping`; the
    // engine's `ingest` runs on the server's connection thread.
    let (ingest, extra) = match w.kind {
        Kind::Wire => ("wire.send_cycle", "wire.ping"),
        _ => ("engine.ingest", ""),
    };
    let calls = tr.durations(ingest);
    let mut us: Samples = calls.iter().map(|s| s * 1e6).collect();
    let wall: f64 = passes.iter().map(|p| p.time.wall_s).sum();
    let blocked = tr.total(ingest) + tr.total(extra);
    let finish = match w.kind {
        Kind::Wire => "wire.finish",
        _ => "engine.finish",
    };
    let mut finish_s: Samples = tr.durations(finish).into_iter().collect();
    m.add(
        "engine.ingest_calls",
        "count",
        (calls.len() / passes.len()) as f64,
    );
    m.add(
        "engine.ingest_us_p50",
        "us",
        pct(&mut us, 0.5, "ingest calls")?,
    );
    m.add(
        "engine.ingest_us_p99",
        "us",
        pct(&mut us, 0.99, "ingest calls")?,
    );
    m.add("engine.blocked_share", "ratio", blocked / wall);
    m.add("engine.finish_s", "s", finish_s.median().unwrap_or(0.0));
    m.add(
        "engine.ticks_per_s",
        "ticks/s",
        plain.ticks as f64 / plain.time.wall_s,
    );
    let send_share = match w.kind {
        Kind::Wire => tr.total("wire.send_cycle") / wall,
        _ => 0.0,
    };
    m.add("wire.send_blocked_share", "ratio", send_share);
    m.add("engine.peak_rss_mib", "MiB", passes[0].peak_rss_mib);
    let (rtt_p50, rtt_p99) = match w.kind {
        Kind::Wire => {
            let mut rtts: Samples = passes
                .iter()
                .flat_map(|p| p.rtts_ms.iter().copied())
                .collect();
            (
                pct(&mut rtts, 0.5, "RTT samples")?,
                pct(&mut rtts, 0.99, "RTT samples")?,
            )
        }
        _ => (0.0, 0.0),
    };
    m.add("wire.rtt_p50_ms", "ms", rtt_p50);
    m.add("wire.rtt_p99_ms", "ms", rtt_p99);
    let traced_wall = wall / passes.len() as f64;
    m.add("trace.overhead", "ratio", traced_wall / plain.time.wall_s);
    Ok(())
}

/// The snapshot layer: the engine passes' `checkpoint` and
/// `restore_bytes` calls and checkpoint size (medians over `passes`), then
/// each stage timed call by call on one checkpoint of the elastic feed:
/// encode, decode, and the engine rebuild from the decoded state. Zero on
/// workloads that keep no engine state.
fn snapshot_metrics(
    w: &Workload,
    input: &Input,
    model: &Arc<NodeSentry>,
    passes: &[Pass],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<()> {
    let median = |mut values: Samples| values.median().unwrap_or(0.0);
    let checkpoint = median(
        passes
            .iter()
            .flat_map(|p| p.checkpoint_s.iter().copied())
            .collect(),
    );
    let restore = median(passes.iter().filter_map(|p| p.restore_s).collect());
    let mib = median(
        passes
            .iter()
            .filter_map(|p| p.snapshot_bytes)
            .map(|b| b as f64 / (1024.0 * 1024.0))
            .collect(),
    );
    let (mut nodes, mut per_node, mut enc, mut dec, mut rebuild) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if w.kind == Kind::Elastic {
        let cfg = w.engine_config(input.split());
        let engine = Engine::new(Arc::clone(model), cfg);
        for cycle in input.cycles[..input.cut_cycle()].iter().cloned() {
            engine.ingest(cycle).map_err(|e| format!("ingest: {e}"))?;
        }
        let ckpt = engine
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        engine.finish();
        let t = Instant::now();
        let bytes = tr.time("snapshot.to_bytes", || ckpt.snapshot.to_bytes());
        enc = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let snap = tr
            .time("snapshot.from_bytes", || EngineSnapshot::from_bytes(&bytes))
            .map_err(|e| format!("decode snapshot: {e}"))?;
        dec = t.elapsed().as_secs_f64();
        let mut restore_cfg = cfg;
        restore_cfg.n_shards = w.shape.restore_shards;
        let t = Instant::now();
        let restored = tr
            .time("engine.restore", || {
                Engine::restore(Arc::clone(model), restore_cfg, &snap)
            })
            .map_err(|e| format!("restore: {e}"))?;
        rebuild = t.elapsed().as_secs_f64();
        restored.finish();
        nodes = snap.nodes.len() as f64;
        per_node = bytes.len() as f64 / nodes.max(1.0);
    }
    m.add("snapshot.checkpoint_s", "s", checkpoint);
    m.add("snapshot.restore_s", "s", restore);
    m.add("snapshot.mib", "MiB", mib);
    m.add("snapshot.nodes", "count", nodes);
    m.add("snapshot.bytes_per_node", "bytes", per_node);
    m.add("snapshot.encode_s", "s", enc);
    m.add("snapshot.decode_s", "s", dec);
    m.add("snapshot.rebuild_s", "s", rebuild);
    Ok(())
}

fn replay_metrics(
    tr: &Tracer,
    counts: &[Counts],
    model: &NodeSentry,
    m: &mut Metrics,
) -> Result<()> {
    let passes = counts.len() as f64;
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let (ticks, segments, rows, points, bytes) = (
        sum(|c| c.ticks),
        sum(|c| c.segments),
        sum(|c| c.score_rows),
        sum(|c| c.points),
        sum(|c| c.wire_bytes),
    );
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let samples = |name: &str, scale: f64| -> Samples {
        tr.durations(name).iter().map(|v| v * scale).collect()
    };
    let first = &counts[0];
    let mut probe_rows: Samples = first.probe_rows.iter().copied().collect();
    let mut occupancy: Samples = first.occupancy.iter().copied().collect();

    m.add("preprocess.ticks", "count", first.ticks as f64);
    m.add(
        "preprocess.ns_per_tick",
        "ns",
        per(tr.self_total("preprocess") * 1e9, ticks),
    );

    let mut feat_us = samples("features", 1e6);
    m.add("features.probes", "count", first.probes as f64);
    m.add(
        "features.probe_rows",
        "rows",
        probe_rows.median().unwrap_or(0.0),
    );
    m.add("features.probe_cols", "cols", first.probe_cols as f64);
    m.add("features.width", "count", first.feature_width as f64);
    m.add(
        "features.us_per_probe_p50",
        "us",
        pct(&mut feat_us, 0.5, "probes")?,
    );
    m.add(
        "features.us_per_probe_p99",
        "us",
        pct(&mut feat_us, 0.99, "probes")?,
    );

    let mut match_ns = samples("match", 1e9);
    m.add(
        "match.library_k",
        "count",
        model.cluster_model.probe_centroids.rows() as f64,
    );
    m.add(
        "match.ns_per_probe_p50",
        "ns",
        pct(&mut match_ns, 0.5, "probe matches")?,
    );

    let mut batch_ms = samples("score", 1e3);
    m.add("score.segments", "count", first.segments as f64);
    m.add("score.rows", "count", first.score_rows as f64);
    m.add("score.batches", "count", first.occupancy.len() as f64);
    m.add(
        "score.occupancy_p50",
        "segments",
        occupancy.median().unwrap_or(0.0),
    );
    m.add(
        "score.us_per_row",
        "us",
        per(tr.self_total("score") * 1e6, rows),
    );
    m.add(
        "score.ms_per_batch_p50",
        "ms",
        pct(&mut batch_ms, 0.5, "score batches")?,
    );
    m.add(
        "score.ms_per_batch_p99",
        "ms",
        pct(&mut batch_ms, 0.99, "score batches")?,
    );

    m.add("detect.points", "count", first.points as f64);
    m.add(
        "detect.ns_per_point",
        "ns",
        per(tr.self_total("detect") * 1e9, points),
    );

    m.add("wire.bytes_per_tick", "bytes", per(bytes, ticks));
    m.add(
        "wire.encode_ns_per_tick",
        "ns",
        per(tr.total("wire.encode") * 1e9, ticks),
    );
    m.add(
        "wire.decode_ns_per_tick",
        "ns",
        per(tr.total("wire.decode") * 1e9, ticks),
    );

    m.add(
        "workload.segments_per_kilotick",
        "count",
        per(segments * 1e3, ticks),
    );
    let layers: f64 = LAYERS.iter().map(|l| tr.self_total(l)).sum();
    m.add("trace.coverage", "ratio", layers / tr.total("replay"));
    m.add("trace.replay_passes", "count", passes);
    Ok(())
}

/// Span summary per name: count, total and self time, and the tail.
fn print_spans(label: &str, tr: &Tracer) {
    let own = tr.self_ns();
    let mut names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (mut n, mut total, mut own_ns) = (0u64, 0u64, 0u64);
        for (s, o) in tr.spans().iter().zip(&own) {
            if s.name == name {
                n += 1;
                total += s.dur_ns();
                own_ns += o;
            }
        }
        // The median and the highest percentile with ten samples beyond
        // it, when there are enough samples for either.
        let mut durs: Samples = tr.durations(name).into_iter().collect();
        let tail = tail_percentile(durs.len())
            .map(|q| {
                let p50 = durs.percentile(0.5).unwrap_or(0.0);
                let pq = durs.percentile(q).unwrap_or(0.0);
                format!(" p50={p50:.6}s p{}={pq:.6}s", q * 100.0)
            })
            .unwrap_or_default();
        println!(
            "span {label:<6} {name:<22} n={n:<8} total={:.6}s self={:.6}s{tail}",
            total as f64 * 1e-9,
            own_ns as f64 * 1e-9
        );
    }
}
