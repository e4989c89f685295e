//! Micro-kernel throughput: the autovectorization regression gate.
//!
//! `ns_linalg::kernels` promises two things the type system cannot see:
//! each kernel inlines into its callers, and its inner loop compiles to
//! vector code (4-wide f64 blocks, no bounds checks). Both only show up
//! as *throughput*, so this bench measures every kernel and — under
//! `cargo bench` — asserts two floors:
//!
//! * an **absolute** floor (catastrophe canary): orders of magnitude
//!   below healthy codegen, so it only trips when a kernel has fallen
//!   off a cliff (per-element bounds checks, lost inlining, debug-mode
//!   arithmetic);
//! * a **relative** floor (parity canary): the blocked kernel must stay
//!   within 2× of the naive idiomatic loop it replaced — if blocking
//!   ever makes a kernel *slower* than what it replaced, that is a
//!   regression regardless of machine speed.
//!
//! The floors are deliberately loose (shared CI runners throttle), and
//! they only run in timed mode: under `cargo test` the closures execute
//! once for coverage and no timing is asserted. A manual pass at the end
//! writes `BENCH_kernels.json` with GFLOP/s per kernel for the README
//! perf table and CI artifacts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ns_bench::{median_ns, write_bench_json};
use ns_linalg::kernels;
use ns_linalg::matrix::Matrix;
use ns_linalg::matrix_f32::MatrixF32;
use serde_json::json;

const N: usize = 4096;

fn series(seed: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 31 + seed * 17) as f64 * 0.123).sin() * 2.0)
        .collect()
}

fn series_f32(seed: usize) -> Vec<f32> {
    series(seed).into_iter().map(|v| v as f32).collect()
}

fn bench_kernels(c: &mut Criterion) {
    let a = series(1);
    let b = series(2);
    let mut y = series(3);

    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);
    g.bench_function("dot_4096", |bench| {
        bench.iter(|| black_box(kernels::dot(black_box(&a), black_box(&b))))
    });
    g.bench_function("axpy_4096", |bench| {
        bench.iter(|| kernels::axpy(black_box(&mut y), 1.000001, black_box(&b)))
    });
    g.bench_function("squared_distance_4096", |bench| {
        bench.iter(|| black_box(kernels::squared_distance(black_box(&a), black_box(&b))))
    });
    let m1 = Matrix::from_fn(64, 64, |r, c| ((r * 64 + c) as f64 * 0.01).sin());
    let m2 = Matrix::from_fn(64, 64, |r, c| ((r * 64 + c) as f64 * 0.02).cos());
    let mut out = Matrix::zeros(64, 64);
    g.bench_function("matmul_into_64", |bench| {
        bench.iter(|| m1.matmul_into(black_box(&m2), &mut out))
    });

    // f32 twins of the precision-tiered scoring path.
    let a32 = series_f32(1);
    let b32 = series_f32(2);
    let mut y32 = series_f32(3);
    g.bench_function("dot_f32_4096", |bench| {
        bench.iter(|| black_box(kernels::dot_f32(black_box(&a32), black_box(&b32))))
    });
    g.bench_function("axpy_f32_4096", |bench| {
        bench.iter(|| kernels::axpy_f32(black_box(&mut y32), 1.000001, black_box(&b32)))
    });
    g.bench_function("squared_distance_f32_4096", |bench| {
        bench.iter(|| {
            black_box(kernels::squared_distance_f32(
                black_box(&a32),
                black_box(&b32),
            ))
        })
    });
    let m1_32 = MatrixF32::from_matrix(&m1);
    let m2_32 = MatrixF32::from_matrix(&m2);
    let mut out32 = MatrixF32::zeros(64, 64);
    g.bench_function("matmul_f32_into_64", |bench| {
        bench.iter(|| m1_32.matmul_into(black_box(&m2_32), &mut out32))
    });
}

/// Naive idiomatic forms the kernels replaced — the relative baseline.
mod naive {
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }
    pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv += a * xv;
        }
    }
    pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }
}

fn throughput_report_and_assertions() {
    let timed = std::env::args().any(|a| a == "--bench");
    let a = series(4);
    let b = series(5);
    let mut y = series(6);
    let iters = if timed { 2000 } else { 1 };

    let dot_ns = median_ns(iters, || {
        black_box(kernels::dot(black_box(&a), black_box(&b)));
    });
    let dot_naive_ns = median_ns(iters, || {
        black_box(naive::dot(black_box(&a), black_box(&b)));
    });
    let axpy_ns = median_ns(iters, || {
        kernels::axpy(black_box(&mut y), 1.000001, black_box(&b));
    });
    let axpy_naive_ns = median_ns(iters, || {
        naive::axpy(black_box(&mut y), 1.000001, black_box(&b));
    });
    let sqd_ns = median_ns(iters, || {
        black_box(kernels::squared_distance(black_box(&a), black_box(&b)));
    });
    let sqd_naive_ns = median_ns(iters, || {
        black_box(naive::squared_distance(black_box(&a), black_box(&b)));
    });

    // 2 flops per element for dot/axpy, 3 for squared distance.
    let gflops = |flops_per_elem: f64, ns: f64| (N as f64 * flops_per_elem) / ns;
    let dot_gflops = gflops(2.0, dot_ns);
    let axpy_gflops = gflops(2.0, axpy_ns);
    let sqd_gflops = gflops(3.0, sqd_ns);

    let k = 36;
    let m1 = Matrix::from_fn(128, k, |r, c| ((r * k + c) as f64 * 0.01).sin());
    let m2 = Matrix::from_fn(k, 72, |r, c| ((r * 72 + c) as f64 * 0.02).cos());
    let mut out = Matrix::zeros(128, 72);
    let mm_iters = if timed { 500 } else { 1 };
    let mm_ns = median_ns(mm_iters, || m1.matmul_into(black_box(&m2), &mut out));
    let mm_gflops = (2.0 * 128.0 * k as f64 * 72.0) / mm_ns;

    // f32 twins: same element counts, so the f64/f32 ns ratio is a
    // direct bandwidth-parity read (half the bytes per lane should buy
    // roughly double the elements per cycle once autovectorized).
    let a32 = series_f32(4);
    let b32 = series_f32(5);
    let mut y32 = series_f32(6);
    let dot32_ns = median_ns(iters, || {
        black_box(kernels::dot_f32(black_box(&a32), black_box(&b32)));
    });
    let axpy32_ns = median_ns(iters, || {
        kernels::axpy_f32(black_box(&mut y32), 1.000001, black_box(&b32));
    });
    let sqd32_ns = median_ns(iters, || {
        black_box(kernels::squared_distance_f32(
            black_box(&a32),
            black_box(&b32),
        ));
    });
    let dot32_gflops = gflops(2.0, dot32_ns);
    let axpy32_gflops = gflops(2.0, axpy32_ns);
    let sqd32_gflops = gflops(3.0, sqd32_ns);
    let m1_32 = MatrixF32::from_matrix(&m1);
    let m2_32 = MatrixF32::from_matrix(&m2);
    let mut out32 = MatrixF32::zeros(128, 72);
    let mm32_ns = median_ns(mm_iters, || {
        m1_32.matmul_into(black_box(&m2_32), &mut out32)
    });
    let mm32_gflops = (2.0 * 128.0 * k as f64 * 72.0) / mm32_ns;

    write_bench_json(
        "kernels",
        &json!({
            "n": N,
            "gflops": json!({
                "dot": dot_gflops,
                "axpy": axpy_gflops,
                "squared_distance": sqd_gflops,
                "matmul_128x36x72": mm_gflops,
            }),
            "vs_naive": json!({
                "dot": dot_naive_ns / dot_ns,
                "axpy": axpy_naive_ns / axpy_ns,
                "squared_distance": sqd_naive_ns / sqd_ns,
            }),
            "f32": json!({
                "dot": dot32_gflops,
                "axpy": axpy32_gflops,
                "squared_distance": sqd32_gflops,
                "matmul_128x36x72": mm32_gflops,
            }),
            "f32_vs_f64": json!({
                "dot": dot_ns / dot32_ns,
                "axpy": axpy_ns / axpy32_ns,
                "squared_distance": sqd_ns / sqd32_ns,
                "matmul_128x36x72": mm_ns / mm32_ns,
            }),
        }),
    );
    println!(
        "dot {dot_gflops:.2} GF/s ({:.2}x naive) | axpy {axpy_gflops:.2} GF/s ({:.2}x) | \
         sqdist {sqd_gflops:.2} GF/s ({:.2}x) | matmul {mm_gflops:.2} GF/s",
        dot_naive_ns / dot_ns,
        axpy_naive_ns / axpy_ns,
        sqd_naive_ns / sqd_ns,
    );
    println!(
        "f32: dot {dot32_gflops:.2} GF/s ({:.2}x f64) | axpy {axpy32_gflops:.2} GF/s ({:.2}x) | \
         sqdist {sqd32_gflops:.2} GF/s ({:.2}x) | matmul {mm32_gflops:.2} GF/s ({:.2}x)",
        dot_ns / dot32_ns,
        axpy_ns / axpy32_ns,
        sqd_ns / sqd32_ns,
        mm_ns / mm32_ns,
    );

    if timed {
        // Catastrophe canaries: healthy codegen lands 1–10 GFLOP/s on
        // any x86-64/aarch64 of the last decade; 0.05 only trips on a
        // cliff (debug arithmetic, per-element bounds checks).
        assert!(dot_gflops > 0.05, "dot throughput cliff: {dot_gflops} GF/s");
        assert!(
            axpy_gflops > 0.05,
            "axpy throughput cliff: {axpy_gflops} GF/s"
        );
        assert!(
            sqd_gflops > 0.05,
            "sqdist throughput cliff: {sqd_gflops} GF/s"
        );
        assert!(
            mm_gflops > 0.05,
            "matmul throughput cliff: {mm_gflops} GF/s"
        );
        // Parity canaries: blocking must not lose to the loop it
        // replaced (2× margin absorbs runner noise).
        assert!(
            dot_ns < dot_naive_ns * 2.0,
            "blocked dot slower than naive: {dot_ns}ns vs {dot_naive_ns}ns"
        );
        assert!(
            axpy_ns < axpy_naive_ns * 2.0,
            "blocked axpy slower than naive: {axpy_ns}ns vs {axpy_naive_ns}ns"
        );
        assert!(
            sqd_ns < sqd_naive_ns * 2.0,
            "blocked sqdist slower than naive: {sqd_ns}ns vs {sqd_naive_ns}ns"
        );
        // f32 catastrophe canaries, same cliff threshold as f64.
        assert!(
            dot32_gflops > 0.05,
            "dot_f32 throughput cliff: {dot32_gflops} GF/s"
        );
        assert!(
            axpy32_gflops > 0.05,
            "axpy_f32 throughput cliff: {axpy32_gflops} GF/s"
        );
        assert!(
            sqd32_gflops > 0.05,
            "sqdist_f32 throughput cliff: {sqd32_gflops} GF/s"
        );
        assert!(
            mm32_gflops > 0.05,
            "matmul_f32 throughput cliff: {mm32_gflops} GF/s"
        );
        // Bandwidth-parity canaries on the streaming hot-path kernels:
        // f32 halves the bytes per element, so a vectorized f32 kernel
        // should run its f64 twin's length in well under the f64 time.
        // 1.5x (not the ideal 2x) absorbs runner noise; failing it means
        // the f32 loop stopped vectorizing and the precision tier no
        // longer buys what it costs.
        assert!(
            dot_ns / dot32_ns >= 1.5,
            "dot_f32 lost bandwidth parity: {:.2}x f64 (want >=1.5x)",
            dot_ns / dot32_ns
        );
        assert!(
            sqd_ns / sqd32_ns >= 1.5,
            "sqdist_f32 lost bandwidth parity: {:.2}x f64 (want >=1.5x)",
            sqd_ns / sqd32_ns
        );
    }
}

fn benches_then_report(c: &mut Criterion) {
    bench_kernels(c);
    throughput_report_and_assertions();
}

criterion_group!(benches, benches_then_report);
criterion_main!(benches);
