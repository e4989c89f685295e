//! The reporting rules: exact-sample percentiles with their sample-count
//! floor, the metric-name charset, and the result line.

use perfbench::report::{valid_name, valid_unit, Metrics, Outcome};
use perfbench::stats::{beyond, tail_percentile, Samples, MIN_BEYOND, P99_SAMPLES};

fn samples(n: usize) -> Samples {
    // In reverse, so the percentile has to sort.
    (1..=n).rev().map(|v| v as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(P99_SAMPLES, 0.99), MIN_BEYOND);
    assert_eq!(beyond(P99_SAMPLES - 1, 0.99), MIN_BEYOND - 1);
    assert_eq!(beyond(20, 0.5), 10);
    let mut s = samples(P99_SAMPLES);
    assert_eq!(s.percentile(0.99), Some(990.0));
    assert_eq!(s.percentile(0.5), Some(500.0));
    assert_eq!(s.percentile(0.999), None);
    assert_eq!(samples(P99_SAMPLES - 1).percentile(0.99), None);
    assert_eq!(samples(19).percentile(0.5), None);
    assert_eq!(samples(20).percentile(0.5), Some(10.0));
}

#[test]
fn tail_percentile_is_the_highest_with_ten_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(0.5));
    assert_eq!(tail_percentile(99), Some(0.5));
    assert_eq!(tail_percentile(100), Some(0.9));
    assert_eq!(tail_percentile(999), Some(0.9));
    assert_eq!(tail_percentile(1000), Some(0.99));
    assert_eq!(tail_percentile(10_000), Some(0.999));
}

#[test]
fn median_of_a_few_repetitions() {
    assert_eq!(Samples::new().median(), None);
    assert_eq!(samples(5).median(), Some(3.0));
    assert_eq!(samples(4).median(), Some(2.5));
}

#[test]
fn metric_names_use_the_charset() {
    for ok in ["setup_s", "engine.ingest_us_p99", "rtt-p50", "9lives", "a"] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        ".x",
        "_x",
        "-x",
        "a b",
        "a/b",
        "a:b",
        "ä",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "ticks/s", "%", "MiB", "count"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "seventeen-chars-x"] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
#[should_panic(expected = "metric name")]
fn metrics_refuse_a_bad_name() {
    Metrics::new().add("bad name", "s", 1.0);
}

#[test]
#[should_panic(expected = "reported twice")]
fn metrics_refuse_a_repeated_name() {
    let mut m = Metrics::new();
    m.add("setup_s", "s", 1.0);
    m.add("setup_s", "s", 2.0);
}

#[test]
fn result_line_has_the_four_keys() {
    let mut metrics = Metrics::new();
    metrics.add("setup_s", "s", 0.8127);
    metrics.add("ticks_per_s", "ticks/s", 51979.759296);
    let out = Outcome {
        attempted: 1000,
        failed: 0,
        metrics,
    };
    assert_eq!(
        out.to_json(),
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
         \"ticks_per_s\": {\"value\": 51979.759296, \"unit\": \"ticks/s\"}}}"
    );
}
