//! The three benchmark workloads, their fixed shapes, and the inputs each
//! one generates from the command-line seed.
//!
//! All three are closed loops with a single client: one generator thread
//! hands the engine the next step-major cycle (every node's ticks for
//! `cycle_steps` consecutive steps) only when the previous call has
//! returned. Every tick is generated before any clock starts, and every
//! shape constant below is fixed per workload: nothing is read from the
//! core count or the environment, so a figure from another machine is
//! recognisable by the `nproc` printed next to it.
//!
//! # `deploy-d2`
//!
//! A D2′-shaped feed (small catalog, short jobs with frequent
//! transitions, injected anomalies; 24 nodes over one simulated day) run
//! in-process from `Engine::ingest` to `Engine::finish`. This is the paper's §5.1 online loop. Most
//! test-span work ends in a probe match or a segment score, so the
//! `features`, `match` and `score` layers carry the load; it is also the
//! workload whose ground truth gives precision and recall.
//!
//! # `fleet-elastic`
//!
//! A D1′-shaped wide catalog with more nodes, jobs that outlast the
//! horizon (one transition per node, in the training span) and no
//! anomalies. Halfway through the test span it takes `Engine::checkpoint`,
//! tears the engine down, restores the bytes with `Engine::restore_bytes`
//! at a different shard count and replays the tail. It is the same engine
//! with the opposite mix: per-tick `preprocess` and `engine` routing
//! dominate while `features` and `score` do little, and it is the only
//! workload that writes and reads engine state.
//!
//! # `wire-d2`
//!
//! The `deploy-d2` feed sent over one TCP connection, `IngestClient` to
//! `Engine::serve_ingest`, with a `ping` after every `ping_every` cycles.
//! The engine work is identical to `deploy-d2`, so any difference between
//! the two is the `wire` layer: frame codec, socket and connection thread.
//!
//! # Why these shapes
//!
//! The benchmark's spread is taken over seeds, so a shape must not let
//! one seed do much more work than another. Every job runs on one node
//! (`max_job_width: 1`), so the work averages over independent nodes.
//! On `fleet-elastic` every node's open segment at the cut holds the same
//! number of rows, so the snapshot size depends only on how many columns
//! the fitted preprocessor keeps; fitting on 16 nodes, each running its
//! own job, shows it enough job archetypes to keep a near-constant count.
//! Both fits are held to 6 clusters. The model trains one shared network
//! per cluster and the engine scores one batch per matched cluster, so
//! the count sets both costs: on the D2′ feed a silhouette-picked count
//! ran from 2 to 8 over twenty seeds, and the cheap seeds were the
//! few-cluster ones. On `fleet-elastic`, engine construction and restore
//! also fingerprint the whole model, and a picked count (6 to 10 over
//! ten seeds) moved the restore time, which `ticks_per_cpu_s` includes
//! there, by a quarter from seed to seed.
//! Queues are 8 cycles deep, so in-flight batches do not dominate memory.
//! `wire-d2` pings once per queue depth (8 cycles): the client can keep
//! the shard queues fed between round trips, so its throughput is the
//! wire layer's cost rather than round-trip stalls on a busy 2-core
//! machine. That cost is mostly one socket write per tick on the client
//! and the connection thread's reads, whose CPU time depends on how the
//! two threads interleave. Over two ten-seed sets on a shared 2-core
//! virtual machine, `ticks_per_cpu_s` spread (quartile distance over
//! median) 0.18 and 0.07 on `wire-d2`,
//! 0.09 and 0.11 on `deploy-d2`, and 0.06 and 0.07 on `fleet-elastic`.
//!
//! # Which layer should move which metric
//!
//! | layer | per-layer metrics | should move |
//! |---|---|---|
//! | `fit` | `fit.*` | `setup_s` on every workload |
//! | `pool` | `pool.*` | `setup_s` (all); `ticks_per_cpu_s` on `deploy-d2` |
//! | `engine` | `engine.*` | `ticks_per_cpu_s` on `fleet-elastic`; little on `deploy-d2` |
//! | `preprocess` | `preprocess.*` | `ticks_per_cpu_s` on `fleet-elastic`, then `deploy-d2` (60% of its ticks are training-span context) |
//! | `features` | `features.*` | `ticks_per_cpu_s` on `deploy-d2` and `wire-d2`; about none on `fleet-elastic` |
//! | `match` | `match.*` | as `features`, predicted small |
//! | `score` | `score.*` | `ticks_per_cpu_s` on `deploy-d2`; `quality.precision`/`quality.recall` must not move |
//! | `detect` | `detect.*` | predicted negligible everywhere |
//! | `wire` | `wire.*` | `ticks_per_cpu_s` (and `wire.rtt_*`) on `wire-d2`; none in-process |
//! | `snapshot` | `snapshot.*` | `ticks_per_cpu_s` on `fleet-elastic`, whose measured span runs through a checkpoint and the restore (and `snapshot.checkpoint_s`, `snapshot.restore_s`, `snapshot.mib`, `engine.peak_rss_mib` there) |
//!
//! `workload.segments_per_kilotick` is the transition-rate context for any
//! claim that depends on how often segments close.

use nodesentry_core::{NodeInput, NodeSentry, NodeSentryConfig, Tick};
use ns_linalg::matrix::Matrix;
use ns_stream::EngineConfig;
use ns_telemetry::{Dataset, DatasetProfile};

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["deploy-d2", "fleet-elastic", "wire-d2"];

/// How a workload drives the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Engine::ingest` per cycle, then `Engine::finish`.
    InProcess,
    /// As `InProcess`, with checkpoint, teardown and restore at a
    /// different shard count halfway through the test span.
    Elastic,
    /// The cycles cross one TCP connection.
    Wire,
}

/// Every size and count a workload fixes.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub nodes: usize,
    pub horizon: usize,
    /// Widest job, in nodes.
    pub max_job_width: usize,
    /// Job length range, in steps.
    pub job_steps: (usize, usize),
    pub anomalies_per_node: f64,
    pub missing_rate: f64,
    pub shards: usize,
    /// Shard count the engine is restored at (`Elastic` only).
    pub restore_shards: usize,
    pub queue_depth: usize,
    /// Steps per ingested cycle.
    pub cycle_steps: usize,
    /// Cycles between pings (`Wire` only).
    pub ping_every: usize,
    /// Nodes the model is fitted on (the first ones).
    pub fit_nodes: usize,
    pub epochs: usize,
    /// Cluster count the fit is held to; `None` lets the silhouette pick.
    pub clusters: Option<usize>,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Passes over the feed every run makes at least, whatever
    /// `--seconds` says.
    pub min_passes: usize,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: Shape,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let d2 = Shape {
            nodes: 24,
            horizon: 2880,
            max_job_width: 1,
            job_steps: (60, 300),
            anomalies_per_node: 2.5,
            missing_rate: 0.001,
            shards: 2,
            restore_shards: 2,
            queue_depth: 8,
            cycle_steps: 2,
            ping_every: 8,
            fit_nodes: 2,
            epochs: 2,
            clusters: Some(6),
            setup_reps: 3,
            min_passes: 3,
        };
        let (kind, shape) = match name {
            "deploy-d2" => (Kind::InProcess, d2),
            "wire-d2" => (Kind::Wire, d2),
            "fleet-elastic" => (
                Kind::Elastic,
                Shape {
                    nodes: 32,
                    horizon: 960,
                    max_job_width: 1,
                    job_steps: (2000, 3000),
                    anomalies_per_node: 0.0,
                    missing_rate: 0.0,
                    shards: 2,
                    restore_shards: 1,
                    queue_depth: 8,
                    cycle_steps: 1,
                    ping_every: 1,
                    fit_nodes: 16,
                    epochs: 1,
                    clusters: Some(6),
                    setup_reps: 3,
                    min_passes: 3,
                },
            ),
            _ => return None,
        };
        Some(Workload {
            name: NAMES.iter().find(|n| **n == name)?,
            kind,
            shape,
        })
    }

    /// A miniature of this workload for the benchmark's own tests: the
    /// same kind and layers, a few nodes, one short fit and one pass.
    pub fn tiny(self) -> Workload {
        let s = self.shape;
        Workload {
            shape: Shape {
                nodes: 4,
                horizon: 720,
                max_job_width: 2,
                job_steps: (s.job_steps.0.min(150), 300),
                fit_nodes: 2,
                epochs: 1,
                clusters: None,
                setup_reps: 1,
                min_passes: 1,
                ..s
            },
            ..self
        }
    }

    /// The dataset profile with every seed derived from `seed`.
    pub fn profile(&self, seed: u64) -> DatasetProfile {
        let s = &self.shape;
        let mut p = match self.kind {
            Kind::Elastic => DatasetProfile::d1_prime(),
            Kind::InProcess | Kind::Wire => DatasetProfile::d2_prime(),
        };
        p.name = self.name.into();
        p.schedule.n_nodes = s.nodes;
        p.schedule.horizon = s.horizon;
        p.schedule.max_width = s.max_job_width;
        (p.schedule.min_duration, p.schedule.max_duration) = s.job_steps;
        p.events_per_node = s.anomalies_per_node;
        p.missing_rate = s.missing_rate;
        p.schedule.seed = derive_seed(seed, 1);
        p.seed = derive_seed(seed, 2);
        p
    }

    /// The detector configuration: the library default with this
    /// workload's training epochs, and preprocessing statistics taken
    /// from every node of the fit subsample.
    pub fn model_config(&self) -> NodeSentryConfig {
        let mut cfg = NodeSentryConfig::default();
        cfg.sharing.epochs = self.shape.epochs;
        cfg.fit_sample_nodes = self.shape.fit_nodes;
        cfg.coarse.force_k = self.shape.clusters;
        cfg
    }

    /// The default engine configuration at this workload's shard count
    /// and queue depth.
    pub fn engine_config(&self, split: usize) -> EngineConfig {
        let mut cfg = EngineConfig::new(split);
        cfg.n_shards = self.shape.shards;
        cfg.queue_depth = self.shape.queue_depth;
        cfg
    }
}

/// SplitMix64 of `seed` and a stream index: independent, reproducible
/// seeds for the schedule and the signal/anomaly simulation.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's generated input, complete before any clock starts.
pub struct Input {
    pub ds: Dataset,
    /// Raw `horizon × width` matrix per node.
    pub raws: Vec<Matrix>,
    /// Job-transition steps per node.
    pub transitions: Vec<Vec<usize>>,
    /// The step-major cycles the client sends, in order.
    pub cycles: Vec<Vec<Tick>>,
    /// Training inputs of the fit subsample.
    pub fit_inputs: Vec<NodeInput>,
    /// Metric group id per raw column.
    pub groups: Vec<usize>,
}

impl Input {
    pub fn generate(w: &Workload, seed: u64) -> Input {
        let ds = w.profile(seed).generate();
        let raws: Vec<Matrix> = (0..ds.n_nodes()).map(|n| ds.raw_node(n)).collect();
        let transitions: Vec<Vec<usize>> = (0..ds.n_nodes())
            .map(|n| {
                ds.schedule
                    .node_timeline(n)
                    .iter()
                    .map(|seg| seg.start)
                    .filter(|&s| s > 0)
                    .collect()
            })
            .collect();
        let cycles = (0..ds.horizon())
            .step_by(w.shape.cycle_steps)
            .map(|start| {
                let end = (start + w.shape.cycle_steps).min(ds.horizon());
                (start..end)
                    .flat_map(|step| {
                        raws.iter()
                            .enumerate()
                            .map(move |(node, raw)| (node, step, raw))
                    })
                    .map(|(node, step, raw)| Tick {
                        node,
                        step,
                        values: raw.row(step).to_vec(),
                        transition: transitions[node].binary_search(&step).is_ok(),
                    })
                    .collect()
            })
            .collect();
        let fit_inputs = (0..w.shape.fit_nodes.min(ds.n_nodes()))
            .map(|n| NodeInput {
                raw: raws[n].clone(),
                transitions: transitions[n].clone(),
            })
            .collect();
        let groups = ds.catalog.group_ids();
        Input {
            ds,
            raws,
            transitions,
            cycles,
            fit_inputs,
            groups,
        }
    }

    pub fn split(&self) -> usize {
        self.ds.split
    }

    pub fn n_ticks(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    /// Index of the first cycle at or after the checkpoint cut: halfway
    /// through the test span.
    pub fn cut_cycle(&self) -> usize {
        let cut_step = self.split() + (self.ds.horizon() - self.split()) / 2;
        self.cycles
            .iter()
            .position(|c| c.first().is_some_and(|t| t.step >= cut_step))
            .unwrap_or(self.cycles.len())
    }

    /// The benchmark's set-up: fit on the training span of the fit
    /// subsample.
    pub fn fit(&self, w: &Workload) -> NodeSentry {
        NodeSentry::fit(
            w.model_config(),
            &self.fit_inputs,
            &self.groups,
            self.split(),
        )
    }
}
