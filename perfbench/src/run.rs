//! One pass of a workload through the system, and the timed runs built
//! from repeated passes.

use crate::oracle::{quality, Oracle, Seen};
use crate::report::{Metrics, Outcome};
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::sys::{PeakRss, Stopwatch, Times};
use crate::workload::{Input, Kind, Workload};
use nodesentry_core::NodeSentry;
use ns_stream::{Engine, FaultCounters, Verdict};
use ns_telemetry::IngestClient;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// Quiesced checkpoints timed per elastic pass.
const CHECKPOINT_REPS: usize = 3;

/// What one pass measured and returned.
pub struct Pass {
    /// Wall-clock and process CPU seconds from the first ingest until
    /// `finish` returned, minus the teardown of a checkpointed engine and
    /// its extra timed checkpoints.
    pub time: Times,
    pub ticks: u64,
    pub peak_rss_mib: f64,
    pub verdicts: Vec<Seen>,
    pub faults: FaultCounters,
    /// Quiesced checkpoint times (`Elastic` only).
    pub checkpoint_s: Vec<f64>,
    pub restore_s: Option<f64>,
    pub snapshot_bytes: Option<usize>,
    pub rtts_ms: Vec<f64>,
}

fn seen(v: &Verdict) -> Seen {
    Seen {
        node: v.node,
        step: v.step,
        score_bits: v.score.to_bits(),
        anomalous: v.anomalous,
    }
}

/// The set-up `setup_s` measures: fit plus `Engine::new`.
pub fn set_up(w: &Workload, input: &Input, tr: &mut Tracer) -> (Arc<NodeSentry>, Times) {
    let clock = Stopwatch::start();
    let model = Arc::new(tr.time("fit", || input.fit(w)));
    let engine = tr.time("engine.new", || {
        Engine::new(Arc::clone(&model), w.engine_config(input.split()))
    });
    let took = clock.elapsed();
    engine.finish();
    (model, took)
}

/// One pass over the whole feed.
pub fn pass(w: &Workload, input: &Input, model: &Arc<NodeSentry>, tr: &mut Tracer) -> Result<Pass> {
    match w.kind {
        Kind::InProcess => in_process(w, input, model, tr),
        Kind::Elastic => elastic(w, input, model, tr),
        Kind::Wire => wire(w, input, model, tr),
    }
}

fn in_process(
    w: &Workload,
    input: &Input,
    model: &Arc<NodeSentry>,
    tr: &mut Tracer,
) -> Result<Pass> {
    let engine = tr.time("engine.new", || {
        Engine::new(Arc::clone(model), w.engine_config(input.split()))
    });
    let peak = PeakRss::start().map_err(|e| e.to_string())?;
    let clock = Stopwatch::start();
    for cycle in &input.cycles {
        // `ingest` takes ownership, so each cycle is handed over as a
        // copy; the generated input stays resident and outside the peak.
        let cycle = cycle.clone();
        tr.time("engine.ingest", || engine.ingest(cycle))
            .map_err(|e| format!("ingest: {e}"))?;
    }
    let report = tr.time("engine.finish", || engine.finish());
    let time = clock.elapsed();
    Ok(Pass {
        time,
        ticks: report.stats.n_ticks,
        peak_rss_mib: peak.growth_mib().map_err(|e| e.to_string())?,
        verdicts: report.verdicts.iter().map(seen).collect(),
        faults: report.faults,
        checkpoint_s: Vec::new(),
        restore_s: None,
        snapshot_bytes: None,
        rtts_ms: Vec::new(),
    })
}

fn elastic(w: &Workload, input: &Input, model: &Arc<NodeSentry>, tr: &mut Tracer) -> Result<Pass> {
    let (head, tail) = input.cycles.split_at(input.cut_cycle());
    let cfg = w.engine_config(input.split());
    let mut restore_cfg = cfg;
    restore_cfg.n_shards = w.shape.restore_shards;
    let engine = tr.time("engine.new", || Engine::new(Arc::clone(model), cfg));

    let peak = PeakRss::start().map_err(|e| e.to_string())?;
    let clock = Stopwatch::start();
    for cycle in head {
        let cycle = cycle.clone();
        tr.time("engine.ingest", || engine.ingest(cycle))
            .map_err(|e| format!("ingest: {e}"))?;
    }
    // The first checkpoint is a barrier: it waits for the queued cycles
    // and drains the verdicts they finalize. The timed ones then
    // snapshot the same state with nothing in flight, so their time does
    // not depend on how far the client had run ahead. Only the last
    // counts toward the pass's time; the others are extra samples.
    let mut prefix = tr
        .time("engine.checkpoint", || engine.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?
        .verdicts;
    let mut checkpoint_s = Vec::with_capacity(CHECKPOINT_REPS);
    let mut paused = Times::default();
    let ckpt = loop {
        let tc = Stopwatch::start();
        let ckpt = tr
            .time("engine.checkpoint", || engine.checkpoint())
            .map_err(|e| format!("checkpoint: {e}"))?;
        let took = tc.elapsed();
        checkpoint_s.push(took.wall_s);
        if checkpoint_s.len() == CHECKPOINT_REPS {
            break ckpt;
        }
        paused += took;
        prefix.extend(ckpt.verdicts);
    };
    // Teardown does not count toward the pass's time, but it is
    // synchronous, so the old workers' final flush cannot overlap the
    // restored engine.
    let teardown = Stopwatch::start();
    tr.time("engine.teardown", || engine.finish());
    paused += teardown.elapsed();
    let tr0 = Instant::now();
    let restored = tr
        .time("engine.restore_bytes", || {
            Engine::restore_bytes(Arc::clone(model), restore_cfg, &ckpt.bytes)
        })
        .map_err(|e| format!("restore: {e}"))?;
    let restore_s = tr0.elapsed().as_secs_f64();
    for cycle in tail {
        let cycle = cycle.clone();
        tr.time("engine.ingest", || restored.ingest(cycle))
            .map_err(|e| format!("ingest after restore: {e}"))?;
    }
    let report = tr.time("engine.finish", || restored.finish());
    let time = clock.elapsed() - paused;
    if report.n_shards != w.shape.restore_shards {
        return Err(format!(
            "restored engine runs {} shards, asked for {}",
            report.n_shards, w.shape.restore_shards
        ));
    }
    Ok(Pass {
        time,
        ticks: report.stats.n_ticks,
        peak_rss_mib: peak.growth_mib().map_err(|e| e.to_string())?,
        verdicts: prefix
            .iter()
            .chain(&ckpt.verdicts)
            .chain(&report.verdicts)
            .map(seen)
            .collect(),
        faults: report.faults,
        checkpoint_s,
        restore_s: Some(restore_s),
        snapshot_bytes: Some(ckpt.bytes.len()),
        rtts_ms: Vec::new(),
    })
}

fn wire(w: &Workload, input: &Input, model: &Arc<NodeSentry>, tr: &mut Tracer) -> Result<Pass> {
    let engine = tr.time("engine.new", || {
        Engine::new(Arc::clone(model), w.engine_config(input.split()))
    });
    let server = engine
        .serve_ingest("127.0.0.1:0")
        .map_err(|e| format!("bind ingest server: {e}"))?;
    let mut client =
        IngestClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rtts_ms = Vec::with_capacity(input.cycles.len() / w.shape.ping_every + 1);

    let peak = PeakRss::start().map_err(|e| e.to_string())?;
    let clock = Stopwatch::start();
    for (i, cycle) in input.cycles.iter().enumerate() {
        tr.time("wire.send_cycle", || client.send_cycle(cycle))
            .map_err(|e| format!("send_cycle: {e}"))?;
        if (i + 1) % w.shape.ping_every == 0 {
            let rtt: Duration = tr
                .time("wire.ping", || client.ping())
                .map_err(|e| format!("ping: {e}"))?;
            rtts_ms.push(rtt.as_secs_f64() * 1e3);
        }
    }
    let (verdicts, report) = tr
        .time("wire.finish", || client.finish())
        .map_err(|e| format!("finish over the wire: {e}"))?;
    let time = clock.elapsed();
    let peak_rss_mib = peak.growth_mib().map_err(|e| e.to_string())?;
    let run = server
        .shutdown()
        .ok_or("ingest server shut down without a finished run")?;
    Ok(Pass {
        time,
        ticks: report.n_ticks,
        peak_rss_mib,
        verdicts: verdicts
            .iter()
            .map(|v| Seen {
                node: v.node as usize,
                step: v.step as usize,
                score_bits: v.score_bits,
                anomalous: v.anomalous,
            })
            .collect(),
        faults: run.report.faults,
        checkpoint_s: Vec::new(),
        restore_s: None,
        snapshot_bytes: None,
        rtts_ms,
    })
}

/// Hold one pass to the oracle: verdicts bit-equal, the tick count whole,
/// and (for the D2′ feeds) no fault counter moved.
pub fn verify(w: &Workload, input: &Input, oracle: &Oracle, p: &Pass) -> crate::oracle::Check {
    let mut check = oracle.check(p.verdicts.iter().copied());
    let mut fail = |msg: String| {
        check.failed += 1;
        check.first_failure.get_or_insert(msg);
    };
    if p.ticks != input.n_ticks() as u64 {
        fail(format!(
            "engine counted {} ticks, sent {}",
            p.ticks,
            input.n_ticks()
        ));
    }
    if w.kind != Kind::Elastic && !p.faults.is_clean() {
        fail(format!("clean feed tripped fault counters: {:?}", p.faults));
    }
    check
}

/// The timed run: set up `setup_reps` times, then pass over the feed
/// until `seconds` have gone by (and at least `min_passes` times),
/// checking every pass against the oracle.
pub fn timed(w: &Workload, input: &Input, seconds: f64) -> Result<Outcome> {
    let mut setup = Samples::new();
    let mut model = None;
    for rep in 1..=w.shape.setup_reps {
        let (m, took) = set_up(w, input, &mut Tracer::off());
        println!(
            "set-up {rep}: {:.3} cpu-s over {:.3} s",
            took.cpu_s, took.wall_s
        );
        setup.push(took.cpu_s);
        model = Some(m);
    }
    let model = model.ok_or("no set-up repetitions")?;
    println!(
        "model: {} clusters, {} of {} raw columns kept",
        model.n_clusters(),
        model.preprocessor.kept.len(),
        input.groups.len()
    );
    let oracle = Oracle::compute(&model, input);

    // The in-process stream the wire run must reproduce exactly.
    let reference = match w.kind {
        Kind::Wire => {
            let inproc = Workload {
                kind: Kind::InProcess,
                ..*w
            };
            Some(in_process(&inproc, input, &model, &mut Tracer::off())?.verdicts)
        }
        _ => None,
    };

    let mut per_cpu_s = Samples::new();
    let mut per_wall_s = Samples::new();
    let mut attempted = 0u64;
    let mut last_flags = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes < w.shape.min_passes || start.elapsed().as_secs_f64() < seconds {
        let st0 = crate::sys::steal_s().unwrap_or(0.0);
        let p = pass(w, input, &model, &mut Tracer::off())?;
        let stolen = crate::sys::steal_s().unwrap_or(0.0) - st0;
        passes += 1;
        let mut check = verify(w, input, &oracle, &p);
        if reference.as_ref().is_some_and(|r| *r != p.verdicts) {
            check.failed += 1;
            check
                .first_failure
                .get_or_insert("wire verdict stream differs from the in-process stream".into());
        }
        attempted += check.attempted;
        if let Some(first) = check.first_failure {
            return Err(format!(
                "pass {passes}: {} of {} verdicts failed the oracle; first: {first}",
                check.failed, check.attempted
            ));
        }
        last_flags = check.flags;
        let ticks = p.ticks as f64;
        println!(
            "pass {passes}: {:.0} ticks/cpu-s over {:.3} cpu-s, {:.0} ticks/s over {:.3} s, steal {stolen:.2} s",
            ticks / p.time.cpu_s,
            p.time.cpu_s,
            ticks / p.time.wall_s,
            p.time.wall_s
        );
        per_cpu_s.push(ticks / p.time.cpu_s);
        per_wall_s.push(ticks / p.time.wall_s);
    }

    // Figures that cannot be bounded are context lines (see README.md).
    let (precision, recall) = quality(input, &last_flags);
    println!("context: precision {precision} recall {recall} (point-adjusted, pooled over nodes)");
    println!("context: verdict_error_rate 0 over {attempted} verdicts");
    let med = |s: &mut Samples, what: &str| s.median().ok_or(format!("no {what} samples"));
    println!(
        "context: ticks_per_s {} (wall clock, median over {passes} passes)",
        med(&mut per_wall_s, "pass")?
    );

    let mut m = Metrics::new();
    m.add("setup_s", "s", med(&mut setup, "set-up")?);
    m.add(
        "ticks_per_cpu_s",
        "ticks/cpu-s",
        med(&mut per_cpu_s, "pass")?,
    );
    // Any failed verdict returned early, so a result has none.
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}
