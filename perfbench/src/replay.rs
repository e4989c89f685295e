//! Single-threaded layer replay.
//!
//! The engine calls its layers on its own worker threads, where the
//! benchmark cannot time them. The replay instead feeds the workload's
//! own cycles, on one thread, through the same public functions the
//! engine's shards call, in the same order and at the same shapes:
//! `StreamingPreprocessor::push` per tick, `coarse::segment_features` and
//! `ClusterModel::match_pattern_into` per probe, one
//! `SharedModel::score_series_batch` per shard, cycle and matched cluster,
//! `StreamingSmoother` and `StreamingKSigma` per point, and (for the wire
//! workload) `encode_frame` and `FrameAssembler::push` per cycle. Each
//! call gets a span. The verdicts it produces are held to the oracle, which
//! proves the replay did the engine's work.

use crate::oracle::Seen;
use crate::spans::Tracer;
use crate::workload::{Input, Kind, Workload};
use nodesentry_core::{coarse, NodeSentry};
use ns_eval::streaming::{StreamingKSigma, StreamingSmoother};
use ns_linalg::matrix::Matrix;
use ns_stream::{PreRow, StreamingPreprocessor};
use ns_wire::{encode_frame, Frame, FrameAssembler};
use std::collections::{BTreeMap, VecDeque};

/// Layer span names whose self time makes up `trace.coverage`.
pub const LAYERS: [&str; 7] = [
    "preprocess",
    "features",
    "match",
    "score",
    "detect",
    "wire.encode",
    "wire.decode",
];

/// A closed segment waiting for its shard's scoring phase.
struct Job {
    start: usize,
    rows: Vec<Vec<f64>>,
    matched: Option<usize>,
}

/// One node's replay state (the clean-feed subset of the engine's
/// per-node state).
struct Node {
    pre: StreamingPreprocessor,
    next_row: usize,
    cuts: VecDeque<usize>,
    seg_rows: Vec<Vec<f64>>,
    seg_start: usize,
    matched: Option<usize>,
    probe_pending: bool,
    jobs: Vec<Job>,
    smoother: StreamingSmoother,
    detector: StreamingKSigma,
    /// `(step, raw score)` awaiting the (lagged) threshold decision.
    pending: VecDeque<(usize, f64)>,
}

/// Shapes and counts one replay pass saw, beside the spans it recorded.
#[derive(Default)]
pub struct Counts {
    pub ticks: u64,
    pub probes: u64,
    pub probe_rows: Vec<f64>,
    pub probe_cols: usize,
    pub feature_width: usize,
    pub segments: u64,
    pub score_rows: u64,
    /// Segments per batched forward.
    pub occupancy: Vec<f64>,
    pub points: u64,
    pub wire_bytes: u64,
}

/// Replay state for one pass over a workload's input.
pub struct Replay<'a> {
    model: &'a NodeSentry,
    split: usize,
    smooth_window: usize,
    nodes: BTreeMap<usize, Node>,
    z_scratch: Vec<f64>,
    pub counts: Counts,
    pub verdicts: Vec<Seen>,
}

impl<'a> Replay<'a> {
    /// Replay the whole feed once, recording layer spans into `tr`.
    pub fn pass(w: &Workload, input: &Input, model: &'a NodeSentry, tr: &mut Tracer) -> Self {
        let cfg = w.engine_config(input.split());
        let mut r = Replay {
            model,
            split: cfg.split,
            smooth_window: cfg.smooth_window,
            nodes: BTreeMap::new(),
            z_scratch: Vec::new(),
            counts: Counts::default(),
            verdicts: Vec::new(),
        };
        let cut = input.cut_cycle();
        let mut asm = FrameAssembler::new();
        let root = tr.enter("replay");
        for (i, cycle) in input.cycles.iter().enumerate() {
            if w.kind == Kind::Wire {
                let bytes = tr.time("wire.encode", || {
                    let mut buf = Vec::new();
                    for t in cycle {
                        buf.extend_from_slice(&encode_frame(&Frame::Tick(t.clone())));
                    }
                    buf
                });
                let frames = tr.time("wire.decode", || asm.push(&bytes));
                let n = frames.map(|f| f.len()).unwrap_or(0);
                assert_eq!(n, cycle.len(), "frame assembler lost ticks");
                r.counts.wire_bytes += bytes.len() as u64;
            }
            // The engine routes node `n` to shard `n % shards`, and each
            // shard runs its scoring phase once per ingested cycle.
            let shards = if w.kind == Kind::Elastic && i >= cut {
                w.shape.restore_shards
            } else {
                w.shape.shards
            };
            for shard in 0..shards {
                for tick in cycle.iter().filter(|t| t.node % shards == shard) {
                    r.counts.ticks += 1;
                    let split = r.split;
                    let node = r.node(tick.node);
                    if tick.transition && tick.step > split {
                        node.cuts.push_back(tick.step);
                    }
                    let rows = tr.time("preprocess", || node.pre.push(&tick.values));
                    r.absorb(tick.node, rows);
                }
                let owners: Vec<usize> = r
                    .nodes
                    .iter()
                    .filter(|(n, s)| {
                        *n % shards == shard && (s.probe_pending || !s.jobs.is_empty())
                    })
                    .map(|(&n, _)| n)
                    .collect();
                r.scoring_phase(&owners, tr);
            }
        }
        // `finish`: every node flushes in node order, scoring its own jobs.
        let ids: Vec<usize> = r.nodes.keys().copied().collect();
        for n in ids {
            let node = r.node(n);
            let rows = tr.time("preprocess", || node.pre.flush());
            r.absorb(n, rows);
            let node = r.node(n);
            if !node.seg_rows.is_empty() {
                let job = take_open(node);
                node.jobs.push(job);
            }
            r.scoring_phase(&[n], tr);
            let node = r.node(n);
            let flushed = tr.time("detect", || {
                let mut out = Vec::new();
                for sv in node.smoother.flush() {
                    let flagged = node.detector.push(sv);
                    let (step, score) = node.pending.pop_front().expect("score awaiting verdict");
                    out.push((step, score, flagged));
                }
                out
            });
            r.emit(n, flushed);
        }
        tr.exit(root);
        r
    }

    fn node(&mut self, n: usize) -> &mut Node {
        let model = self.model;
        let window = self.smooth_window;
        self.nodes.entry(n).or_insert_with(|| Node {
            pre: StreamingPreprocessor::new(&model.preprocessor),
            next_row: 0,
            cuts: VecDeque::new(),
            seg_rows: Vec::new(),
            seg_start: 0,
            matched: None,
            probe_pending: false,
            jobs: Vec::new(),
            smoother: StreamingSmoother::new(window),
            detector: StreamingKSigma::new(model.cfg.threshold),
            pending: VecDeque::new(),
        })
    }

    /// Segment assembly: test-span rows join the open segment, a job
    /// transition closes it, and the probe is due at `match_period` rows.
    fn absorb(&mut self, n: usize, rows: Vec<PreRow>) {
        let split = self.split;
        let period = self.model.cfg.match_period;
        let node = self.node(n);
        for row in rows {
            let r = node.next_row;
            node.next_row += 1;
            if r < split {
                continue;
            }
            if node.cuts.front() == Some(&r) {
                node.cuts.pop_front();
                if !node.seg_rows.is_empty() {
                    let job = take_open(node);
                    node.jobs.push(job);
                }
            }
            if node.seg_rows.is_empty() {
                node.seg_start = r;
            }
            node.seg_rows.push(row.values);
            if node.matched.is_none() && node.seg_rows.len() == period {
                node.probe_pending = true;
            }
        }
    }

    /// One shard's scoring phase over `owners` (ascending node ids):
    /// resolve due probes, score every closed segment with one batched
    /// forward per matched cluster, then threshold in FIFO order.
    fn scoring_phase(&mut self, owners: &[usize], tr: &mut Tracer) {
        let period = self.model.cfg.match_period;
        let mut jobs: Vec<(usize, Job)> = Vec::new();
        for &n in owners {
            let mut node = self.nodes.remove(&n).expect("owner has state");
            if std::mem::take(&mut node.probe_pending) && !node.seg_rows.is_empty() {
                let len = period.clamp(1, node.seg_rows.len());
                node.matched = Some(self.match_probe(&node.seg_rows[..len], tr));
            }
            for mut job in std::mem::take(&mut node.jobs) {
                if job.matched.is_none() {
                    let len = period.clamp(1, job.rows.len());
                    job.matched = Some(self.match_probe(&job.rows[..len], tr));
                }
                jobs.push((n, job));
            }
            self.nodes.insert(n, node);
        }
        if jobs.is_empty() {
            return;
        }
        let n_models = self.model.shared_models.len();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (_, job)) in jobs.iter().enumerate() {
            let c = job.matched.unwrap_or(0).min(n_models - 1);
            groups.entry(c).or_default().push(i);
        }
        let mut scored: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
        for (c, idxs) in groups {
            self.counts.occupancy.push(idxs.len() as f64);
            let many = tr.time("score", || {
                let mats: Vec<Matrix> = idxs
                    .iter()
                    .map(|&i| Matrix::from_rows(&jobs[i].1.rows))
                    .collect();
                let refs: Vec<&Matrix> = mats.iter().collect();
                let mut many = self.model.shared_models[c].score_series_batch(&refs);
                for (scores, &i) in many.iter_mut().zip(&idxs) {
                    normalize(scores, period.clamp(1, jobs[i].1.rows.len()));
                }
                many
            });
            for (scores, &i) in many.into_iter().zip(&idxs) {
                self.counts.segments += 1;
                self.counts.score_rows += scores.len() as u64;
                scored[i] = scores;
            }
        }
        for ((n, job), scores) in jobs.into_iter().zip(scored) {
            let node = self.nodes.get_mut(&n).expect("owner has state");
            let out = tr.time("detect", || {
                let mut out = Vec::new();
                for (k, score) in scores.into_iter().enumerate() {
                    node.pending.push_back((job.start + k, score));
                    for sv in node.smoother.push(score) {
                        let flagged = node.detector.push(sv);
                        let (step, raw) = node.pending.pop_front().expect("score awaiting verdict");
                        out.push((step, raw, flagged));
                    }
                }
                out
            });
            self.emit(n, out);
        }
    }

    fn match_probe(&mut self, rows: &[Vec<f64>], tr: &mut Tracer) -> usize {
        let model = self.model;
        let feat = tr.time("features", || {
            let probe = Matrix::from_rows(rows);
            coarse::segment_features(&model.cfg.coarse, &probe)
        });
        let scratch = &mut self.z_scratch;
        let (cluster, _) = tr.time("match", || {
            model.cluster_model.match_pattern_into(&feat, scratch)
        });
        self.counts.probes += 1;
        self.counts.probe_rows.push(rows.len() as f64);
        self.counts.probe_cols = rows.first().map_or(0, Vec::len);
        self.counts.feature_width = feat.len();
        cluster
    }

    fn emit(&mut self, node: usize, out: Vec<(usize, f64, bool)>) {
        self.counts.points += out.len() as u64;
        self.verdicts
            .extend(out.into_iter().map(|(step, score, anomalous)| Seen {
                node,
                step,
                score_bits: score.to_bits(),
                anomalous,
            }));
    }
}

fn take_open(node: &mut Node) -> Job {
    node.probe_pending = false;
    Job {
        start: node.seg_start,
        rows: std::mem::take(&mut node.seg_rows),
        matched: node.matched.take(),
    }
}

/// The engine's per-segment baseline: divide by the probe head's median
/// score, floored at 1 (as batch `score_node` does).
fn normalize(scores: &mut [f64], probe_len: usize) {
    let mut head = scores[..probe_len].to_vec();
    head.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let baseline = ns_linalg::stats::quantile_sorted(&head, 0.5).max(1.0);
    for v in scores.iter_mut() {
        *v /= baseline;
    }
}
