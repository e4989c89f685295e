//! Cost of the `ns-wire` tick codec at the deployment's real widths:
//! one `Tick` frame at the D2′ catalog width (564 values, the
//! `wire-d2` feed) and at a 1,000-column catalog.
//!
//! Three timings per width: `encode_frame`, `decode_frame`, and
//! `fnv1a64` over the frame's checksummed body. Both codec directions
//! hash the whole frame once, and FNV-1a is a serial xor-multiply chain,
//! so the checksum is the floor under either direction while the v1
//! format stays pinned. The report's `decode_over_checksum` ratio says
//! how far decode sits above that floor.
//!
//! Criterion covers the statistical comparison; a manual timing pass
//! writes `BENCH_wire.json` for CI and the README perf numbers. Under
//! `cargo test` the manual pass runs one iteration for coverage.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nodesentry_core::Tick;
use ns_bench::{median_ns, write_bench_json};
use ns_wire::{decode_frame, encode_frame, fnv1a64, Frame, TRAILER_LEN};
use serde_json::json;

/// Tick widths: the D2′ catalog (564 metrics) and a 1,000-column one.
const WIDTHS: [usize; 2] = [564, 1000];

/// One telemetry-shaped tick: smooth counters with a few exact zeros,
/// the mix a collector ships every sample.
fn tick(width: usize) -> Frame {
    Frame::Tick(Tick {
        node: 17,
        step: 86_399,
        values: (0..width)
            .map(|c| {
                if c % 37 == 0 {
                    0.0
                } else {
                    ((c as f64 * 0.73).sin() + 1.5) * 10f64.powi((c % 7) as i32)
                }
            })
            .collect(),
        transition: false,
    })
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for width in WIDTHS {
        let frame = tick(width);
        let bytes = encode_frame(&frame);
        let body = &bytes[..bytes.len() - TRAILER_LEN];
        group.bench_function(format!("encode_frame_{width}"), |b| {
            b.iter(|| black_box(encode_frame(black_box(&frame))))
        });
        group.bench_function(format!("decode_frame_{width}"), |b| {
            b.iter(|| black_box(decode_frame(black_box(&bytes)).expect("decode")))
        });
        group.bench_function(format!("fnv1a64_{width}"), |b| {
            b.iter(|| black_box(fnv1a64(black_box(body))))
        });
    }
    group.finish();
}

fn write_report() {
    let timed = std::env::args().any(|a| a == "--bench");
    // ~10 µs per call at these widths: 10k calls keep each sample near
    // 100 ms, long enough to ride out scheduler jitter.
    let iters = if timed { 10_000 } else { 1 };
    let mut per_width: Vec<(String, serde_json::Value)> = Vec::new();
    for width in WIDTHS {
        let frame = tick(width);
        let bytes = encode_frame(&frame);
        let body = &bytes[..bytes.len() - TRAILER_LEN];
        let encode = median_ns(iters, || {
            black_box(encode_frame(black_box(&frame)));
        });
        let decode = median_ns(iters, || {
            black_box(decode_frame(black_box(&bytes)).expect("decode"));
        });
        let checksum = median_ns(iters, || {
            black_box(fnv1a64(black_box(body)));
        });
        per_width.push((
            format!("values_{width}"),
            json!({
                "frame_bytes": bytes.len(),
                "encode_ns_per_tick": encode,
                "decode_ns_per_tick": decode,
                "checksum_ns_per_tick": checksum,
                "checksum_ns_per_byte": checksum / body.len() as f64,
                "decode_over_checksum": decode / checksum,
                "encode_over_checksum": encode / checksum,
            }),
        ));
        println!(
            "{width:>5} values ({} B): encode {:.2}µs | decode {:.2}µs | fnv1a64 {:.2}µs | decode/checksum {:.2}",
            bytes.len(),
            encode / 1e3,
            decode / 1e3,
            checksum / 1e3,
            decode / checksum,
        );
    }
    write_bench_json(
        "wire",
        &json!({
            "config": json!({
                "widths": WIDTHS,
                "iters_per_sample": iters,
                "available_parallelism": std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            }),
            "tick_ns": serde_json::Value::Object(per_width),
        }),
    );
}

fn benches_then_report(c: &mut Criterion) {
    bench_wire(c);
    write_report();
}

criterion_group!(benches, benches_then_report);
criterion_main!(benches);
