//! The correctness gate: every verdict the system returns is held to the
//! batch oracle (`NodeSentry::score_node` + `ksigma_detect` on raw
//! scores, the engine's default `smooth_window = 1`), bit for bit.

use crate::workload::Input;
use nodesentry_core::NodeSentry;
use ns_eval::metrics::{adjusted_confusion, Confusion};
use ns_eval::threshold::ksigma_detect;

/// One verdict as the benchmark compares it, whichever layer returned it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seen {
    pub node: usize,
    pub step: usize,
    pub score_bits: u64,
    pub anomalous: bool,
}

/// The oracle's verdicts: one per node per test step.
pub struct Oracle {
    split: usize,
    /// `(score bits, anomalous)` per node, indexed by `step - split`.
    per_node: Vec<Vec<(u64, bool)>>,
}

impl Oracle {
    pub fn compute(model: &NodeSentry, input: &Input) -> Oracle {
        let split = input.split();
        let per_node = input
            .raws
            .iter()
            .zip(&input.transitions)
            .map(|(raw, transitions)| {
                let (scores, _) = model.score_node(raw, transitions, split);
                let flags = ksigma_detect(&scores, &model.cfg.threshold);
                scores.iter().map(|s| s.to_bits()).zip(flags).collect()
            })
            .collect();
        Oracle { split, per_node }
    }

    /// Verdicts one full run must return.
    pub fn expected(&self) -> u64 {
        self.per_node.iter().map(|v| v.len() as u64).sum()
    }

    /// Compare one run's verdicts with the oracle. Every expected verdict
    /// that is missing, duplicated or not bit-equal counts as one failure;
    /// so does every verdict for a step the oracle has none for.
    pub fn check(&self, verdicts: impl IntoIterator<Item = Seen>) -> Check {
        let mut seen: Vec<Vec<u8>> = self.per_node.iter().map(|v| vec![0; v.len()]).collect();
        let mut flags: Vec<Vec<bool>> =
            self.per_node.iter().map(|v| vec![false; v.len()]).collect();
        let mut failed = 0u64;
        let mut first = None;
        let mut fail = |msg: String| {
            failed += 1;
            first.get_or_insert(msg);
        };
        for v in verdicts {
            let slot = v
                .step
                .checked_sub(self.split)
                .and_then(|k| Some((self.per_node.get(v.node)?.get(k)?, k)));
            let Some((&(bits, anomalous), k)) = slot else {
                fail(format!("unexpected verdict {v:?}"));
                continue;
            };
            seen[v.node][k] = seen[v.node][k].saturating_add(1);
            flags[v.node][k] = v.anomalous;
            if seen[v.node][k] > 1 {
                fail(format!("duplicated verdict {v:?}"));
            } else if v.score_bits != bits || v.anomalous != anomalous {
                fail(format!(
                    "verdict {v:?} differs from the oracle: score {} (bits {bits:#x}), anomalous {anomalous}",
                    f64::from_bits(bits)
                ));
            }
        }
        for (node, s) in seen.iter().enumerate() {
            for (k, &count) in s.iter().enumerate() {
                if count == 0 {
                    fail(format!(
                        "missing verdict: node {node} step {}",
                        self.split + k
                    ));
                }
            }
        }
        Check {
            attempted: self.expected(),
            failed,
            first_failure: first,
            flags,
        }
    }
}

/// The outcome of one [`Oracle::check`].
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The checked run's flags per node over the test span.
    pub flags: Vec<Vec<bool>>,
}

/// Point-adjusted precision and recall of `flags` against the
/// simulator's ground truth, pooled over nodes (summed confusion counts,
/// so a node with no anomaly still counts its false positives).
pub fn quality(input: &Input, flags: &[Vec<bool>]) -> (f64, f64) {
    let split = input.split();
    let mut total = Confusion::default();
    for (node, pred) in flags.iter().enumerate() {
        let truth = input.ds.labels(node);
        let c = adjusted_confusion(pred, &truth[split..], None);
        total.tp += c.tp;
        total.fp += c.fp;
        total.fn_ += c.fn_;
        total.tn += c.tn;
    }
    (total.precision(), total.recall())
}
