//! Exact-sample statistics. Every percentile the benchmark reports is
//! read from its own per-sample vector, never from a bucketed histogram.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples a p99 needs to have [`MIN_BEYOND`] beyond it.
pub const P99_SAMPLES: usize = MIN_BEYOND * 100;

/// Percentiles the benchmark may report, lowest first.
pub const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank position (1-based) of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// An owned vector of samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (the median of fewer than 20
    /// samples is allowed through [`Samples::median`] instead).
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() || beyond(self.values.len(), q) < MIN_BEYOND {
            return None;
        }
        Some(self.at(q))
    }

    /// The middle value (mean of the two middle values for an even
    /// count), for summarizing a handful of repetitions.
    pub fn median(&mut self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            0.5 * (self.values[n / 2 - 1] + self.values[n / 2])
        })
    }

    fn at(&mut self, q: f64) -> f64 {
        self.sort();
        self.values[rank(self.values.len(), q) - 1]
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}
