//! The peak-memory measurement: resetting `VmHWM` through
//! `/proc/self/clear_refs`. Alone in its own test binary, so no other
//! test's allocations move this process's resident set.

use perfbench::sys::{release_free_heap, reset_peak_rss, status_mib, PeakRss};

const MIB: usize = 1024 * 1024;

fn touch(mib: usize) -> Vec<u8> {
    let mut v = vec![0u8; mib * MIB];
    for page in v.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(v)
}

#[test]
fn clear_refs_resets_the_peak_and_growth_is_measured() {
    drop(touch(96));
    release_free_heap();
    let rss = status_mib("VmRSS").expect("VmRSS");
    let hwm = status_mib("VmHWM").expect("VmHWM");
    assert!(
        hwm - rss > 64.0,
        "the freed 96 MiB should sit in the peak: {hwm} vs {rss}"
    );

    reset_peak_rss().expect("/proc/self/clear_refs is writable");
    let hwm = status_mib("VmHWM").expect("VmHWM");
    let rss = status_mib("VmRSS").expect("VmRSS");
    assert!(
        hwm - rss < 16.0,
        "reset peak {hwm} should be near the resident {rss}"
    );

    let peak = PeakRss::start().expect("peak reset");
    let held = touch(48);
    let grown = peak.growth_mib().expect("VmHWM");
    drop(held);
    assert!(
        (40.0..80.0).contains(&grown),
        "48 MiB touched, {grown} MiB measured"
    );
}
