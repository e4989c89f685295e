//! Proof of the streaming match path's zero-allocation claim: a counting
//! global allocator observes `standardize_probe_into` +
//! `match_pattern_into` against a warm scratch vector and must see
//! **zero** allocations steady-state. (Feature extraction upstream of the
//! matcher has its own scratch story in `ns-features`; this test covers
//! the standardize-and-nearest-centroid kernel the streaming engine runs
//! per probe.)
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb any other test. The count is per thread, so the
//! harness running the other test concurrently cannot leak into it.

use nodesentry_core::coarse::ClusterModel;
use ns_linalg::matrix::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and drop-free: touching it never allocates,
    // so the allocator can bump it without recursing.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: delegates verbatim to `System`; only adds a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A hand-built library: 12 centroids over 96 probe features, constructed
/// directly so the test does not depend on the fitting pipeline.
fn library(k: usize, dim: usize) -> ClusterModel {
    let centroids = Matrix::from_fn(k, dim, |r, c| ((r * 13 + c * 7) as f64 * 0.31).sin() * 2.0);
    ClusterModel {
        feat_mean: vec![0.0; dim],
        feat_std: vec![1.0; dim],
        centroids: (0..k).map(|r| centroids.row(r).to_vec()).collect(),
        labels: (0..k).collect(),
        member_distances: vec![0.0; k],
        silhouette: 0.5,
        probe_feat_mean: vec![0.25; dim],
        probe_feat_std: vec![1.5; dim],
        probe_centroids: centroids,
        match_radius: 10.0,
    }
}

#[test]
fn warm_match_path_allocates_nothing() {
    let (k, dim) = (12, 96);
    let model = library(k, dim);
    let probes: Vec<Vec<f64>> = (0..8)
        .map(|p| {
            (0..dim)
                .map(|c| ((p * 11 + c * 5) as f64 * 0.23).cos() * 2.0)
                .collect()
        })
        .collect();

    let mut scratch = Vec::new();
    // Warm-up: first call sizes the scratch vector.
    let warm = model.match_pattern_into(&probes[0], &mut scratch);
    // Sanity: the scratch variant agrees with the allocating API.
    assert_eq!(warm, model.match_pattern(&probes[0]));

    let mut sink = (0usize, 0.0f64);
    let n = allocations(|| {
        for _ in 0..8 {
            for p in &probes {
                let (c, d) = model.match_pattern_into(p, &mut scratch);
                sink.0 ^= c;
                sink.1 += d;
            }
        }
    });
    std::hint::black_box(sink);
    assert_eq!(n, 0, "warm steady-state match must not allocate");
}

#[test]
fn scratch_variants_bit_identical_to_allocating_api() {
    let model = library(7, 33); // odd width exercises the remainder path
    let mut scratch = Vec::new();
    for p in 0..10 {
        let probe: Vec<f64> = (0..33)
            .map(|c| ((p * 3 + c) as f64 * 0.41).sin() * 3.0)
            .collect();
        let (ci, di) = model.match_pattern_into(&probe, &mut scratch);
        let (ca, da) = model.match_pattern(&probe);
        assert_eq!(ci, ca);
        assert_eq!(di.to_bits(), da.to_bits());
        assert_eq!(scratch, model.standardize_probe(&probe));
    }
}
