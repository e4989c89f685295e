//! The result line: named metrics with units, rendered as the one JSON
//! object the benchmark prints last.

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metrics in insertion order, with names checked as they are added.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a metric; panics on a malformed or repeated name, a malformed
    /// unit or a non-finite value, all of which are bugs in the benchmark.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?}");
        assert!(valid_unit(unit), "metric unit {unit:?}");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Everything one benchmark run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Verdicts checked against the oracle.
    pub attempted: u64,
    /// Verdicts missing, duplicated or not bit-equal to the oracle.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `{:?}` gives the shortest round-trip digits, and its
                // forms (`3.0`, `1e-7`) are valid JSON numbers.
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
